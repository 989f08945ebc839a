/**
 * @file
 * Server restart durability (docs/SERVING.md §3): a child process
 * serves PUT traffic over the loopback with durableAcks on a
 * persistent store, reporting every acked key up a pipe; the parent
 * SIGKILLs it mid-load, reopens the store (journal replay + restart
 * recovery), re-opens the KvEngine in place, and verifies every
 * acked PUT survived — the ack-prefix contract of
 * tools/persist/crash_harness.cc, pushed through the whole serve
 * stack.  The database needs no serialisation step to come back: it
 * *is* the store's address space.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "faults/crash_point.hh"
#include "serve/client.hh"
#include "serve/kv_engine.hh"
#include "serve/loopback.hh"
#include "serve/server.hh"

namespace envy {
namespace serve {
namespace {

std::string
tempStore(const char *name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".journal").c_str());
    std::remove((path + ".journal.tmp").c_str());
    return path;
}

void
cleanup(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".journal").c_str());
    std::remove((path + ".journal.tmp").c_str());
}

EnvyConfig
persistentConfig(const std::string &path)
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 32;
    cfg.persistPath = path;
    return cfg;
}

std::string
valueFor(std::uint64_t key)
{
    return "v-" + std::to_string(key * 2654435761u);
}

/**
 * Child body: serve an endless PUT stream, pushing each acked key up
 * @p ackFd the instant its ack frame arrives.  Runs until killed.
 */
[[noreturn]] void
serveUntilKilled(const std::string &path, int ackFd)
{
    EnvyStore store(persistentConfig(path));
    KvEngineConfig engCfg;
    engCfg.numShards = 4;
    KvEngine engine(store, engCfg);
    // The engine layout itself must be durable before any ack.
    store.persistFlush();

    ServeConfig cfg;
    cfg.workers = 0; // deterministic pump
    cfg.durableAcks = true;
    Server server(store, engine, cfg);
    LoopbackPair pair = loopbackPair();
    server.attach(std::move(pair.server));
    KvClient client(std::move(pair.client));

    for (std::uint64_t i = 0;; i++) {
        // Cycle a bounded key space: overwrites are in-place, so the
        // child can serve forever without filling the engine.
        const std::uint64_t key = i % 4096;
        client.sendPut(key, valueFor(key));
        server.pump();
        Response resp;
        if (!client.recv(resp, false) || resp.status != Status::Ok)
            ::_exit(3); // engine full before the kill landed
        // The ack exists; only now may the parent learn of the key.
        ssize_t n;
        do {
            n = ::write(ackFd, &key, sizeof(key));
        } while (n < 0 && errno == EINTR);
        if (n != static_cast<ssize_t>(sizeof(key)))
            ::_exit(4);
    }
}

/**
 * Read one acked key from the child's pipe.  False on EOF (the child
 * is gone and the pipe drained) or a torn read.
 */
bool
readAckedKey(int fd, std::uint64_t &key)
{
    for (;;) {
        const ssize_t n = ::read(fd, &key, sizeof(key));
        if (n == static_cast<ssize_t>(sizeof(key)))
            return true;
        if (!(n < 0 && errno == EINTR))
            return false;
    }
}

TEST(ServeRestart, AckedPutsSurviveSigkill)
{
    bool anyAcks = false;
    for (const int killDelayMs : {5, 20, 60}) {
        const std::string path = tempStore("serve_restart.store");
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);

        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(fds[0]);
            serveUntilKilled(path, fds[1]);
        }
        ::close(fds[1]);

        // Start the kill timer at the child's first ack, not at
        // fork(): bootstrap time varies several-fold between builds
        // (sanitizers), the serving window should not.  Then kill it
        // mid-flight and collect every key it acked.
        std::vector<std::uint64_t> acked;
        std::uint64_t ackKey;
        if (readAckedKey(fds[0], ackKey))
            acked.push_back(ackKey);
        ::usleep(static_cast<useconds_t>(killDelayMs) * 1000);
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        while (readAckedKey(fds[0], ackKey))
            acked.push_back(ackKey);
        ::close(fds[0]);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status) &&
                    WTERMSIG(status) == SIGKILL)
            << "child exited on its own (status " << status
            << ") — the kill never interrupted it";

        // Nothing acked means the kill landed before the child even
        // finished bootstrapping — no durability claim was made, so
        // there is nothing to verify this round.
        if (acked.empty()) {
            cleanup(path);
            continue;
        }
        anyAcks = true;

        // Reopen: journal replay + restart recovery, then the
        // engine straight out of the recovered address space.  The
        // child flushed the engine layout before its first ack, so a
        // non-empty acked set implies the header is durable.
        EnvyStore store(persistentConfig(path));
        auto engine = KvEngine::open(store);
        for (const std::uint64_t key : acked) {
            KvEngine::GetResult got = engine->get(key);
            ASSERT_EQ(got.status, Status::Ok)
                << "acked key " << key << " lost (of "
                << acked.size() << " acked)";
            EXPECT_EQ(got.value, valueFor(key)) << "key " << key;
        }
        cleanup(path);
    }
    ASSERT_TRUE(anyAcks)
        << "no round produced acks before its kill — delays too "
           "short to test anything";
}

/**
 * Child body for the group-commit rounds: concurrent persistent
 * store, threaded server (=> batched durable acks through the commit
 * thread), pipelined client keeping a window of PUTs outstanding.
 * The worker pool may execute pipelined requests in any order
 * (server.hh ordering contract), so responses are matched by
 * requestId; the durable contract under test is that EVERY ack the
 * client observed names a mutation that survives SIGKILL.  Each key
 * is reported up @p ackFd only after its ack frame was read.  Runs
 * until killed.
 */
[[noreturn]] void
serveGroupCommitUntilKilled(const std::string &path, int ackFd)
{
    EnvyConfig storeCfg = persistentConfig(path);
    storeCfg.numWorkers = 2;
    storeCfg.numCleaners = 1;
    EnvyStore store(storeCfg);
    if (!store.controller().concurrent())
        ::_exit(6);
    KvEngineConfig engCfg;
    engCfg.numShards = 4;
    KvEngine engine(store, engCfg);
    store.persistFlush();

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.durableAcks = true;
    Server server(store, engine, cfg);
    LoopbackPair pair = loopbackPair();
    server.attach(std::move(pair.server));
    KvClient client(std::move(pair.client));

    constexpr std::size_t window = 16;
    std::map<std::uint64_t, std::uint64_t> inflight; // id -> key
    std::uint64_t next = 0;
    auto sendOne = [&] {
        // Distinct keys per op (bounded space): an acked key's value
        // is reconstructible from the key alone after restart.
        const std::uint64_t key = next++ % 4096;
        inflight.emplace(client.sendPut(key, valueFor(key)), key);
    };
    for (std::size_t i = 0; i < window; ++i)
        sendOne();
    for (;;) {
        Response resp;
        if (!client.recv(resp, true))
            ::_exit(3);
        const auto it = inflight.find(resp.requestId);
        if (it == inflight.end())
            ::_exit(5); // unknown or duplicate requestId
        if (resp.status != Status::Ok)
            ::_exit(3);
        const std::uint64_t key = it->second;
        inflight.erase(it);
        ssize_t n;
        do {
            n = ::write(ackFd, &key, sizeof(key));
        } while (n < 0 && errno == EINTR);
        if (n != static_cast<ssize_t>(sizeof(key)))
            ::_exit(4);
        sendOne();
    }
}

TEST(ServeRestart, GroupCommitAckedPutsSurviveSigkill)
{
    // The batched-durable-acks path of PR 10: same contract as
    // AckedPutsSurviveSigkill, but the acks now ride the commit
    // thread's shared journal flushes and the client pipelines a
    // 16-deep window, so one batch typically carries several acks.
    bool anyAcks = false;
    for (const int killDelayMs : {5, 20, 60}) {
        const std::string path =
            tempStore("serve_restart_gc.store");
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);

        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(fds[0]);
            serveGroupCommitUntilKilled(path, fds[1]);
        }
        ::close(fds[1]);

        // As above: the kill timer starts at the first ack.
        std::vector<std::uint64_t> acked;
        std::uint64_t ackKey;
        if (readAckedKey(fds[0], ackKey))
            acked.push_back(ackKey);
        ::usleep(static_cast<useconds_t>(killDelayMs) * 1000);
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        while (readAckedKey(fds[0], ackKey))
            acked.push_back(ackKey);
        ::close(fds[0]);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status) &&
                    WTERMSIG(status) == SIGKILL)
            << "child exited on its own (status " << status
            << ") — ack order broke or the engine filled";

        if (acked.empty()) {
            cleanup(path);
            continue;
        }
        anyAcks = true;

        EnvyConfig storeCfg = persistentConfig(path);
        storeCfg.numWorkers = 2;
        storeCfg.numCleaners = 1;
        EnvyStore store(storeCfg);
        auto engine = KvEngine::open(store);
        for (const std::uint64_t key : acked) {
            KvEngine::GetResult got = engine->get(key);
            ASSERT_EQ(got.status, Status::Ok)
                << "acked key " << key << " lost (of "
                << acked.size() << " acked)";
            EXPECT_EQ(got.value, valueFor(key)) << "key " << key;
        }
        cleanup(path);
    }
    ASSERT_TRUE(anyAcks)
        << "no round produced acks before its kill — delays too "
           "short to test anything";
}

/** SIGKILLs its process at the @p at-th firing of crash point
 *  @p point — turns the wall-clock kill of the tests above into a
 *  deterministic cut at an exact journal/COW barrier. */
struct KillAtCrashPoint : envy::CrashSink
{
    const char *point = nullptr;
    std::uint64_t at = 0;
    std::uint64_t seen = 0;
    void onCrashPoint(const char *name) override
    {
        if (std::strcmp(name, point) != 0)
            return;
        if (++seen == at)
            ::raise(SIGKILL);
    }
};

/**
 * Child body for the crash-point sweep: serve *distinct* keys (the
 * trees keep growing, so leaf and root splits keep happening for the
 * whole run) until the scheduled crash point fires.  Exits 5 if the
 * point never fired often enough — the parent skips that case.
 */
[[noreturn]] void
serveUntilCrashPoint(const std::string &path, int ackFd,
                     const char *point, std::uint64_t occurrence)
{
    static KillAtCrashPoint sink;
    sink.point = point;
    sink.at = occurrence;
    crash_points::setGlobalSink(&sink);

    EnvyStore store(persistentConfig(path));
    KvEngineConfig engCfg;
    engCfg.numShards = 4;
    KvEngine engine(store, engCfg);
    store.persistFlush();

    ServeConfig cfg;
    cfg.workers = 0;
    cfg.durableAcks = true;
    Server server(store, engine, cfg);
    LoopbackPair pair = loopbackPair();
    server.attach(std::move(pair.server));
    KvClient client(std::move(pair.client));

    for (std::uint64_t key = 0; key < 4096; key++) {
        client.sendPut(key, valueFor(key));
        server.pump();
        Response resp;
        if (!client.recv(resp, false) || resp.status != Status::Ok)
            ::_exit(3);
        ssize_t n;
        do {
            n = ::write(ackFd, &key, sizeof(key));
        } while (n < 0 && errno == EINTR);
        if (n != static_cast<ssize_t>(sizeof(key)))
            ::_exit(4);
    }
    ::_exit(5); // the point never fired @p occurrence times
}

TEST(ServeRestart, AckedPutsSurviveCrashPointSweep)
{
    // Regression for the crash-ordered B-tree/engine write protocol
    // (db/btree.hh): a cut between a split's half-writes used to
    // truncate a published leaf before its right sibling became
    // reachable, silently dropping acked keys.  Killing at exact
    // occurrences of the journal-flush and COW barriers lands cuts
    // inside many split windows of a growing tree; every acked key
    // must still be readable after recovery.
    struct Case
    {
        const char *point;
        std::uint64_t occurrence;
    };
    const Case cases[] = {
        {"persist.journal.after_flush", 25},
        {"persist.journal.after_flush", 150},
        {"persist.journal.after_flush", 400},
        {"persist.journal.after_flush", 700},
        {"persist.journal.after_flush", 1000},
        {"persist.journal.after_flush", 1400},
        {"ctl.cow.after_push", 300},
        {"ctl.cow.after_map", 600},
        {"ctl.cow.done", 900},
    };
    int verified = 0;
    for (const Case &c : cases) {
        const std::string path =
            tempStore("serve_restart_cp.store");
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);

        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(fds[0]);
            serveUntilCrashPoint(path, fds[1], c.point,
                                 c.occurrence);
        }
        ::close(fds[1]);
        std::vector<std::uint64_t> acked;
        for (;;) {
            std::uint64_t key;
            const ssize_t n = ::read(fds[0], &key, sizeof(key));
            if (n == static_cast<ssize_t>(sizeof(key))) {
                acked.push_back(key);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        ::close(fds[0]);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
            // The point never reached this occurrence count on this
            // code path; nothing was claimed, nothing to verify.
            cleanup(path);
            continue;
        }
        if (acked.empty()) {
            cleanup(path);
            continue;
        }

        EnvyStore store(persistentConfig(path));
        auto engine = KvEngine::open(store);
        for (const std::uint64_t key : acked) {
            KvEngine::GetResult got = engine->get(key);
            ASSERT_EQ(got.status, Status::Ok)
                << "acked key " << key << " lost at " << c.point
                << " occurrence " << c.occurrence << " (of "
                << acked.size() << " acked)";
            EXPECT_EQ(got.value, valueFor(key)) << "key " << key;
        }
        ++verified;
        cleanup(path);
    }
    // Most cases must actually land their kill: a sweep that skips
    // everything is measuring nothing.
    ASSERT_GE(verified, 5);
}

TEST(ServeRestart, CleanShutdownReopensIntact)
{
    const std::string path = tempStore("serve_clean.store");
    {
        EnvyStore store(persistentConfig(path));
        KvEngineConfig engCfg;
        engCfg.numShards = 4;
        KvEngine engine(store, engCfg);
        ServeConfig cfg;
        cfg.workers = 0;
        cfg.durableAcks = true;
        Server server(store, engine, cfg);
        LoopbackPair pair = loopbackPair();
        server.attach(std::move(pair.server));
        KvClient client(std::move(pair.client));
        for (std::uint64_t key = 0; key < 200; key++) {
            client.sendPut(key, valueFor(key));
            server.pump();
            Response resp;
            ASSERT_TRUE(client.recv(resp, false));
            ASSERT_EQ(resp.status, Status::Ok);
        }
        client.sendDel(7);
        server.pump();
        Response resp;
        ASSERT_TRUE(client.recv(resp, false));
        ASSERT_EQ(resp.status, Status::Ok);
        server.stop();
        store.persistCommit();
    }
    EnvyStore store(persistentConfig(path));
    auto engine = KvEngine::open(store);
    EXPECT_EQ(engine->keyCount(), 199u);
    EXPECT_EQ(engine->get(7).status, Status::NotFound);
    for (std::uint64_t key = 100; key < 110; key++)
        EXPECT_EQ(engine->get(key).value, valueFor(key));
    cleanup(path);
}

TEST(ServeRestart, CommitBatchHistogramCountsEveryDurableAck)
{
    // Under group commit every PUT ack waits for the commit thread.
    // serve.commit_batch takes one sample per commit-thread flush, so
    // its sample count is serve.commit_batches and its samples add up
    // to the acks released.
    const std::string path = tempStore("serve_commit_batch.store");
    {
        EnvyConfig storeCfg = persistentConfig(path);
        storeCfg.numWorkers = 2;
        storeCfg.numCleaners = 1;
        EnvyStore store(storeCfg);
        ASSERT_TRUE(store.controller().concurrent());
        KvEngineConfig engCfg;
        engCfg.numShards = 4;
        KvEngine engine(store, engCfg);
        ServeConfig cfg;
        cfg.workers = 2;
        cfg.durableAcks = true;
        Server server(store, engine, cfg);
        LoopbackPair pair = loopbackPair();
        server.attach(std::move(pair.server));
        KvClient client(std::move(pair.client));

        constexpr std::uint64_t puts = 200;
        for (std::uint64_t key = 0; key < puts; key++)
            client.sendPut(key, valueFor(key));
        for (std::uint64_t i = 0; i < puts; i++) {
            Response resp;
            ASSERT_TRUE(client.recv(resp, true));
            ASSERT_EQ(resp.status, Status::Ok);
        }
        server.stop();

        const obs::MetricsSnapshot snap = store.metrics().snapshot();
        const obs::MetricsSnapshot::Entry *batch =
            snap.find("serve.commit_batch");
        ASSERT_NE(batch, nullptr);
        EXPECT_GT(batch->histCount, 0u);
        EXPECT_EQ(batch->histCount, snap.counter("serve.commit_batches"));
        EXPECT_EQ(batch->histSum, static_cast<double>(puts));
    }
    cleanup(path);
}

} // namespace
} // namespace serve
} // namespace envy

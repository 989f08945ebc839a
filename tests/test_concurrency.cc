/**
 * @file
 * PR 8 concurrency: the sharded controller under real threads.
 *
 * The centrepiece extends the fast/slow differential oracle to
 * concurrent histories: worker threads write DISJOINT page stripes
 * while logging every operation; the per-worker logs are then
 * replayed serially into a slow-dataplane (byte-at-a-time CUI
 * oracle) store, and every logical page must byte-match.  Because
 * the stripes are disjoint, any interleaving of the concurrent run
 * is equivalent to some serial order that preserves each worker's
 * program order — which the replay realises — so a mismatch is a
 * lost or torn write in the concurrent data path.
 *
 * Around it: counted backpressure (satellite d), cross-thread
 * conservation identities, cleaner-pool lifecycle across
 * powerFailAndRecover, and a mixed read/write stress aimed at the
 * TSan CI job.  PR 10 adds the persistent-concurrent pairing this
 * suite used to assert was rejected: durable churn through the
 * commit pipeline's group epochs, checked against the same serial
 * oracle and across a close/reopen cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "envy/cleaner_pool.hh"
#include "envy/envy_store.hh"
#include "envysim/crash_explorer.hh"
#include "persist/backend.hh"
#include "sim/random.hh"

namespace envy {
namespace {

/** Σ liveCount over every segment, recounted from the array. */
std::uint64_t
recountLive(FlashArray &flash)
{
    std::uint64_t live = 0;
    for (std::uint32_t s = 0; s < flash.numSegments(); ++s)
        live += flash.liveCount(SegmentId{s}).value();
    return live;
}

/** Σ eraseCycles over every segment, recounted from the array. */
std::uint64_t
recountErases(FlashArray &flash)
{
    std::uint64_t erases = 0;
    for (std::uint32_t s = 0; s < flash.numSegments(); ++s)
        erases += flash.eraseCycles(SegmentId{s});
    return erases;
}

/**
 * The conservation identities of test_obs_differential, which must
 * survive concurrent histories: counters are relaxed atomics bumped
 * on the same code paths, so cross-component sums still balance once
 * the threads are joined and the buffer is drained.  The background
 * cleaners are stopped (joined) for the check and restarted after
 * it: a clean running alongside would move pages between the
 * snapshot and the recount, and race the recount's reads.
 */
void
expectConservation(EnvyStore &store, bool across_recovery = false)
{
    CleanerPool *pool = store.cleanerPool();
    if (pool)
        pool->stop();
    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_EQ(snap.counter("flash.programs"),
              snap.counter("flash.invalidations") +
                  recountLive(store.flash()));
    EXPECT_EQ(snap.counter("flash.erases"),
              recountErases(store.flash()));
    // Recovery may drop mid-flight buffer entries outside the
    // insert/flush pairing, so this one only holds crash-free.
    if (!across_recovery) {
        EXPECT_EQ(snap.counter("buf.inserts"),
                  snap.counter("buf.flushes") +
                      store.writeBuffer().size());
    }
    EXPECT_EQ(snap.counter("ctl.host_writes"),
              store.controller().metHostWrites.value());
    EXPECT_EQ(snap.counter("ctl.cows"),
              store.controller().metCows.value());
    if (pool)
        pool->start();
}

struct LoggedOp
{
    Addr addr;
    std::vector<std::uint8_t> data;
};

/**
 * Run @p workers threads over disjoint page stripes (worker w owns
 * pages where page % workers == w), each logging every write, and
 * return the logs.  @p ops_per_worker full- and sub-page writes per
 * thread.
 */
std::vector<std::vector<LoggedOp>>
churnDisjointStripes(EnvyStore &store, unsigned workers,
                     int ops_per_worker)
{
    const std::uint32_t page_size = store.config().geom.pageSize;
    const std::uint64_t pages = store.size() / page_size;
    std::vector<std::vector<LoggedOp>> logs(workers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(0xC0FFEEull + w);
            std::vector<LoggedOp> &log = logs[w];
            for (int i = 0; i < ops_per_worker; ++i) {
                const std::uint64_t mine =
                    rng.below(pages / workers) * workers + w;
                LoggedOp op;
                if (rng.chance(0.75)) { // full page
                    op.addr = mine * page_size;
                    op.data.resize(page_size);
                } else { // sub-page
                    const std::uint32_t off = static_cast<std::uint32_t>(
                        rng.below(page_size - 1));
                    op.addr = mine * page_size + off;
                    op.data.resize(rng.between(1, page_size - off));
                }
                for (auto &b : op.data)
                    b = static_cast<std::uint8_t>(rng.next());
                store.write(op.addr, op.data);
                log.push_back(std::move(op));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return logs;
}

/** Byte-compare every logical page of two same-geometry stores. */
void
expectSameContents(EnvyStore &a, EnvyStore &b)
{
    const std::uint32_t page_size = a.config().geom.pageSize;
    const std::uint64_t pages = a.size() / page_size;
    std::vector<std::uint8_t> pa(page_size), pb(page_size);
    for (std::uint64_t p = 0; p < pages; ++p) {
        a.read(p * page_size, pa);
        b.read(p * page_size, pb);
        ASSERT_EQ(pa, pb) << "logical page " << p;
    }
}

TEST(Concurrency, DisjointStripesMatchSerialSlowReplay)
{
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    EnvyStore store(cfg);
    ASSERT_TRUE(store.controller().concurrent());
    ASSERT_NE(store.cleanerPool(), nullptr);

    const auto logs = churnDisjointStripes(store, 4, 400);
    store.flushAll();

    // Serial replay against the byte-at-a-time CUI oracle: each
    // worker's program order is preserved; stripes are disjoint, so
    // the final page contents must be identical.
    EnvyConfig serial = CrashExplorerConfig::churnStore();
    serial.slowDataplane = true;
    EnvyStore twin(serial);
    ASSERT_FALSE(twin.controller().concurrent());
    for (const auto &log : logs)
        for (const LoggedOp &op : log)
            twin.write(op.addr, op.data);
    twin.flushAll();

    expectSameContents(store, twin);
    expectConservation(store);
}

TEST(Concurrency, SingleThreadedDriverMatchesSerialMode)
{
    // The concurrent code path, driven by one thread, must agree
    // with the serial path on every logical page (placement and
    // flush scheduling may differ; content may not).
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 4; // concurrent mode on, but driven serially
    EnvyStore conc(cfg);
    ASSERT_TRUE(conc.controller().concurrent());

    EnvyConfig serial_cfg = CrashExplorerConfig::churnStore();
    EnvyStore serial(serial_cfg);
    ASSERT_FALSE(serial.controller().concurrent());

    const std::uint32_t page_size = cfg.geom.pageSize;
    const std::uint64_t size = conc.size();
    Rng rng(0xABCDull);
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = rng.below(size);
        std::uint64_t len = rng.between(1, 2 * page_size);
        len = std::min<std::uint64_t>(len, size - addr);
        buf.resize(len);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        conc.write(addr, buf);
        serial.write(addr, buf);
    }
    conc.flushAll();
    serial.flushAll();
    expectSameContents(conc, serial);
    expectConservation(conc);
}

TEST(Concurrency, BackpressureIsCountedAndNeverDeadlocks)
{
    // Producers outrun the cleaner.  High utilization exhausts free
    // slots, and the cleaner pool is stopped while the churn fills
    // them, so full-buffer flushes find no ready destination: the
    // producer must take the counted-wait path, and the inline slow
    // path guarantees forward progress.  (A running cleaner could
    // clean ahead and make the wait depend on the thread schedule.)
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.geom.logicalPages = 800; // ~89% of the 896 usable slots
    cfg.policy = PolicyKind::Greedy;
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    cfg.cleanerWatermark = 1; // engage only at zero free pages
    EnvyStore store(cfg);
    ASSERT_NE(store.cleanerPool(), nullptr);

    store.cleanerPool()->stop();
    churnDisjointStripes(store, 4, 300);
    store.cleanerPool()->start();
    store.flushAll();

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_GT(snap.counter("ctl.backpressure_waits"), 0u)
        << "churn never hit the counted-wait backpressure path";
    // Foreground flushes (the inline fallback) kept things moving.
    EXPECT_GT(snap.counter("ctl.foreground_flushes"), 0u);
    expectConservation(store);
}

TEST(Concurrency, CleanerPoolCleansAheadOfProducers)
{
    // A generous watermark puts the pool to work: background cleans
    // must be attributed to the pool's own metric and the policy
    // counter, not to producer foreground stalls alone.
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.geom.logicalPages = 800;
    cfg.numWorkers = 2;
    cfg.numCleaners = 2;
    cfg.cleanerWatermark = 64;
    EnvyStore store(cfg);
    ASSERT_NE(store.cleanerPool(), nullptr);
    EXPECT_EQ(store.cleanerPool()->cleaners(), 2u);

    churnDisjointStripes(store, 2, 600);
    store.flushAll();
    // Quiesce: a cleaner snapshot mid-iteration would sit between
    // the controller's bump and the pool's.
    store.cleanerPool()->stop();

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_GT(snap.counter("ctl.background_cleans"), 0u);
    EXPECT_EQ(snap.counter("ctl.background_cleans"),
              snap.counter("cleaner.pool_cleans"));
    expectConservation(store);
}

TEST(Concurrency, PoolStopsAndRestartsAcrossRecovery)
{
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 2;
    cfg.numCleaners = 1;
    EnvyStore store(cfg);

    churnDisjointStripes(store, 2, 200);
    const RecoveryReport report = store.powerFailAndRecover();
    // A quiesced (joined) store has no in-flight clean to resume.
    EXPECT_FALSE(report.cleanResumed);

    // The pool restarted: another churn still completes and the
    // store still balances.
    churnDisjointStripes(store, 2, 200);
    store.flushAll();
    expectConservation(store, /*across_recovery=*/true);
}

TEST(Concurrency, MixedReadersAndWritersStress)
{
    // Overlapping pages on purpose: per-page outcomes are racy (and
    // unchecked), but the store must stay internally consistent —
    // this is the TSan CI job's main course.
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 4;
    cfg.numCleaners = 2;
    EnvyStore store(cfg);

    const std::uint32_t page_size = cfg.geom.pageSize;
    const std::uint64_t size = store.size();
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < 4; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(0x57E55ull + w);
            std::vector<std::uint8_t> buf;
            for (int i = 0; i < 500; ++i) {
                const Addr addr = rng.below(size);
                std::uint64_t len = rng.between(1, 2 * page_size);
                len = std::min<std::uint64_t>(len, size - addr);
                buf.resize(len);
                if (rng.chance(0.7)) {
                    for (auto &b : buf)
                        b = static_cast<std::uint8_t>(rng.next());
                    store.write(addr, buf);
                } else {
                    store.read(addr, buf);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    store.flushAll();
    expectConservation(store);

    // Every logical page still reads back (no lost mappings).
    std::vector<std::uint8_t> page(page_size);
    for (std::uint64_t p = 0; p < size / page_size; ++p)
        store.read(p * page_size, page);
}

// ---- PR 10: persistence under the sharded controller -------------

/** Remove a persistent store's file set. */
void
removeStoreFiles(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".journal").c_str());
    std::remove((path + ".journal.tmp").c_str());
}

/**
 * Like churnDisjointStripes, but durable: every worker follows each
 * write with persistFlush(), so the commit pipeline sees the real
 * group-commit contention pattern (N callers coalesced per epoch).
 */
std::vector<std::vector<LoggedOp>>
durableChurnDisjointStripes(EnvyStore &store, unsigned workers,
                            int ops_per_worker)
{
    const std::uint32_t page_size = store.config().geom.pageSize;
    const std::uint64_t pages = store.size() / page_size;
    std::vector<std::vector<LoggedOp>> logs(workers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(0xD0BEull + w);
            std::vector<LoggedOp> &log = logs[w];
            for (int i = 0; i < ops_per_worker; ++i) {
                const std::uint64_t mine =
                    rng.below(pages / workers) * workers + w;
                LoggedOp op;
                op.addr = mine * page_size;
                op.data.resize(page_size);
                for (auto &b : op.data)
                    b = static_cast<std::uint8_t>(rng.next());
                store.write(op.addr, op.data);
                store.persistFlush();
                log.push_back(std::move(op));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return logs;
}

TEST(Concurrency, PersistentStoreRunsConcurrentAndGroupCommits)
{
    // PR 10 lifts the old exclusion: a persistPath plus numWorkers
    // now routes persistFlush() through the commit pipeline instead
    // of refusing to construct.  Concurrent durable churn must (a)
    // coalesce flushes into group epochs and (b) still match the
    // serial slow-dataplane oracle byte for byte.
    const std::string path =
        ::testing::TempDir() + "/envy_conc_persist.store";
    removeStoreFiles(path);

    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    cfg.persistPath = path;
    EnvyStore store(cfg);
    ASSERT_TRUE(store.controller().concurrent());
    ASSERT_TRUE(store.persistent());

    const auto logs = durableChurnDisjointStripes(store, 4, 200);
    store.flushAll();

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    const std::uint64_t epochs =
        snap.counter("persist.group_commit.epochs");
    EXPECT_GT(epochs, 0u) << "pipeline never ran an epoch";
    // 4x200 persistFlush() calls coalesced: strictly fewer epochs
    // than callers proves batching actually happened.
    EXPECT_LT(epochs, 800u) << "every flush got its own epoch";

    EnvyConfig serial = CrashExplorerConfig::churnStore();
    serial.slowDataplane = true;
    EnvyStore twin(serial);
    for (const auto &log : logs)
        for (const LoggedOp &op : log)
            twin.write(op.addr, op.data);
    twin.flushAll();
    expectSameContents(store, twin);
    expectConservation(store);
    removeStoreFiles(path);
}

TEST(Concurrency, PersistentConcurrentContentsSurviveReopen)
{
    // Clean-shutdown durability: everything the concurrent store
    // held is there after close + reopen, and the reopened store
    // recovers rather than re-creates.
    const std::string path =
        ::testing::TempDir() + "/envy_conc_reopen.store";
    removeStoreFiles(path);

    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    cfg.persistPath = path;

    const std::uint32_t page_size = cfg.geom.pageSize;
    std::vector<std::uint8_t> want;
    {
        EnvyStore store(cfg);
        ASSERT_TRUE(store.persistReport().created);
        durableChurnDisjointStripes(store, 4, 150);
        store.persistCommit();
        want.resize(store.size());
        store.read(0, want);
    } // dtor: pipeline stops, journal checkpoints, mmap syncs

    EnvyStore reopened(cfg);
    ASSERT_TRUE(reopened.controller().concurrent());
    EXPECT_FALSE(reopened.persistReport().created);
    std::vector<std::uint8_t> got(reopened.size());
    reopened.read(0, got);
    for (std::uint64_t p = 0; p < got.size() / page_size; ++p) {
        ASSERT_EQ(std::memcmp(got.data() + p * page_size,
                              want.data() + p * page_size, page_size),
                  0)
            << "logical page " << p;
    }
    removeStoreFiles(path);
}

} // namespace
} // namespace envy

/**
 * @file
 * envy-served: the standalone TCP server daemon (docs/SERVING.md §5).
 *
 * Stands an epoll-multiplexed TcpListener in front of a threaded
 * Server and accepts connections until SIGINT/SIGTERM, then prints
 * the serve.* counters.  --persist re-opens an existing database in
 * place, so a restarted daemon picks up exactly where the last one
 * stopped.  A persistent store keeps the full concurrent stack
 * (--store-workers/--cleaners); with --durable-acks that combination
 * batches every mutating ack through the commit thread — one shared
 * journal flush per batch (group commit, docs/SERVING.md §3), plus
 * one device barrier per batch under --sync-acks.  --store-workers 0
 * selects the serial persistent controller instead, which clamps the
 * daemon to one protocol worker and flushes inline per request.
 *
 *   envy_served [--port N] [--capacity KEYS] [--workers N]
 *               [--store-workers N] [--cleaners N]
 *               [--persist PATH [--durable-acks [--sync-acks]]]
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "serve/kv_engine.hh"
#include "serve/server.hh"
#include "serve/socket_transport.hh"

using namespace envy;
using namespace envy::serve;

namespace {

// The accept loop blocks in epoll_wait; the handler just pokes the
// listener's stop eventfd (a single async-signal-safe write).
TcpListener *g_listener = nullptr;

void
onSignal(int)
{
    if (g_listener)
        g_listener->stop();
}

struct Options
{
    std::uint16_t port = 7470;
    std::uint64_t capacity = 1'000'000;
    unsigned workers = 4;
    unsigned storeWorkers = 4;
    unsigned cleaners = 1;
    std::string persistPath;
    bool durableAcks = false;
    bool syncAcks = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--capacity KEYS] [--workers N]\n"
        "          [--store-workers N] [--cleaners N]\n"
        "          [--persist PATH [--durable-acks [--sync-acks]]]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--durable-acks") {
            opt.durableAcks = true;
            continue;
        }
        if (arg == "--sync-acks") {
            opt.syncAcks = true;
            continue;
        }
        if (!val)
            usage(argv[0]);
        if (arg == "--port")
            opt.port = static_cast<std::uint16_t>(std::atoi(val));
        else if (arg == "--capacity")
            opt.capacity =
                static_cast<std::uint64_t>(std::atoll(val));
        else if (arg == "--workers")
            opt.workers =
                static_cast<unsigned>(std::atoi(val));
        else if (arg == "--store-workers")
            opt.storeWorkers =
                static_cast<unsigned>(std::atoi(val));
        else if (arg == "--cleaners")
            opt.cleaners = static_cast<unsigned>(std::atoi(val));
        else if (arg == "--persist")
            opt.persistPath = val;
        else
            usage(argv[0]);
        i++;
    }
    if (opt.durableAcks && opt.persistPath.empty())
        usage(argv[0]);
    if (opt.syncAcks && !opt.durableAcks)
        usage(argv[0]);
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    EnvyConfig cfg;
    cfg.geom = kvGeometryFor(opt.capacity);
    cfg.numWorkers = opt.storeWorkers;
    cfg.numCleaners = opt.cleaners;
    cfg.persistPath = opt.persistPath;
    // --persist with --store-workers 0 runs the serial persistent
    // controller, which limits the Server to one protocol worker
    // (server.cc asserts it); a concurrent persistent store takes
    // the full worker pool and batches durable acks through the
    // commit thread.
    const bool serialPersist =
        !opt.persistPath.empty() && opt.storeWorkers == 0;
    EnvyStore store(cfg);

    std::unique_ptr<KvEngine> engine;
    if (!opt.persistPath.empty() && KvEngine::present(store)) {
        engine = KvEngine::open(store);
        std::printf("envy-served: reopened %s (%llu keys)\n",
                    opt.persistPath.c_str(),
                    static_cast<unsigned long long>(
                        engine->keyCount()));
    } else {
        engine = std::make_unique<KvEngine>(store, KvEngineConfig{});
    }

    ServeConfig serveCfg;
    serveCfg.workers =
        serialPersist ? std::min(opt.workers, 1u) : opt.workers;
    serveCfg.durableAcks = opt.durableAcks;
    serveCfg.syncAcks = opt.syncAcks;
    Server server(store, *engine, serveCfg);

    TcpListener listener(opt.port);
    g_listener = &listener;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::printf("envy-served: listening on 127.0.0.1:%u "
                "(%u protocol workers, capacity %llu keys)\n",
                listener.port(), serveCfg.workers,
                static_cast<unsigned long long>(opt.capacity));
    std::fflush(stdout);

    while (ByteStreamPtr conn = listener.accept())
        server.attach(std::move(conn));

    server.stop();
    if (!opt.persistPath.empty())
        store.persistCommit();

    const auto snap = store.metrics().snapshot();
    std::printf("envy-served: shutting down\n"
                "  requests   %llu\n"
                "  batch ops  %llu\n"
                "  shed       %llu\n"
                "  queued     %llu\n"
                "  sends      %llu\n"
                "  keys       %llu\n",
                static_cast<unsigned long long>(
                    snap.counter("serve.requests")),
                static_cast<unsigned long long>(
                    snap.counter("serve.batch_ops")),
                static_cast<unsigned long long>(
                    snap.counter("serve.shed")),
                static_cast<unsigned long long>(
                    snap.counter("serve.queued")),
                static_cast<unsigned long long>(
                    snap.counter("serve.sends")),
                static_cast<unsigned long long>(
                    engine->keyCount()));
    return 0;
}

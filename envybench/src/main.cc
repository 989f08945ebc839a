/**
 * @file
 * envybench main: set up the store, run the phases, check the
 * answers, report (envybench/README.md).
 *
 *   envybench --workload NAME --seed N --seconds S --trace 0|1
 *             [--data-dir DIR] [--tamper]
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, metrics.  --trace 0 reports the end-to-end
 * metrics, --trace 1 the per-layer ones.  --tamper corrupts one
 * answer on purpose; the run must then fail its checks and exit 1.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hh"
#include "envy/envy_store.hh"
#include "obs/metrics.hh"
#include "serve/kv_engine.hh"
#include "serve/server.hh"
#include "serve/socket_transport.hh"

#ifndef ENVYBENCH_BUILD_TYPE
#define ENVYBENCH_BUILD_TYPE "unknown"
#endif

namespace envybench {
namespace {

namespace fs = std::filesystem;
using envy::EnvyConfig;
using envy::EnvyStore;
using envy::obs::MetricsSnapshot;
using envy::serve::KvEngine;
using envy::serve::Op;
using envy::serve::Status;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Closed/open rounds per run; end-to-end figures are round medians.
constexpr unsigned kRounds = 12;
// The generator fell behind when the open phase's p99 send lateness
// passes this.  Host stalls of a few milliseconds delay a few sends
// on any shared host; a generator short of CPU drifts far beyond.
constexpr double kLateLimitUs = 10000.0;
// A request-path run may flush a little (prefill leftovers) but
// should absorb nearly every write in the SRAM buffer.
constexpr double kMinBufferHitRatio = 0.95;
// A cleaning run must clean several segments inside the measured
// phases for its numbers to describe the cleaner at all.
constexpr double kMinCleans = 3;

// ---- arguments ------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dataDir = ".bench_build/envybench-data";
    bool tamper = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "envybench: %s\n"
                 "usage: envybench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--tamper]\n"
                 "workloads:",
                 why.c_str());
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--tamper") {
            a.tamper = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                a.workload = val;
            else if (arg == "--seed")
                a.seed = std::stoull(val);
            else if (arg == "--seconds")
                a.seconds = std::stod(val);
            else if (arg == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (arg == "--data-dir")
                a.dataDir = val;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (!findWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0 && a.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return a;
}

// ---- statistics -----------------------------------------------------

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Per-bucket delta of histogram @p name between two snapshots. */
struct HistDelta
{
    std::vector<std::uint64_t> edges;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0;

    /** Quantile, interpolated linearly inside the bucket. */
    double
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        const double rank = q * static_cast<double>(count);
        double cum = 0;
        for (std::size_t i = 0; i < counts.size(); i++) {
            const auto c = static_cast<double>(counts[i]);
            if (c > 0 && cum + c >= rank) {
                const double lo =
                    i == 0 ? 0.0 : static_cast<double>(edges[i - 1]);
                // The overflow bucket has no top edge; take twice the
                // last one.
                const double hi =
                    static_cast<double>(i < edges.size() ? edges[i]
                                                         : 2 * edges.back());
                return lo + (hi - lo) * (rank - cum) / c;
            }
            cum += c;
        }
        return static_cast<double>(edges.back());
    }
};

HistDelta
histDelta(const MetricsSnapshot &after, const MetricsSnapshot &before,
          const std::string &name)
{
    HistDelta d;
    const MetricsSnapshot::Entry *a = after.find(name);
    if (!a || a->kind != envy::obs::MetricKind::Histogram)
        return d;
    const MetricsSnapshot::Entry *b = before.find(name);
    d.edges = a->edges;
    d.counts = a->counts;
    d.count = a->histCount;
    d.sum = a->histSum;
    if (b && b->counts.size() == d.counts.size()) {
        for (std::size_t i = 0; i < d.counts.size(); i++)
            d.counts[i] -= b->counts[i];
        d.count -= b->histCount;
        d.sum -= b->histSum;
    }
    return d;
}

double
counterDelta(const MetricsSnapshot &after, const MetricsSnapshot &before,
             const std::string &name)
{
    if (!after.find(name))
        return 0; // not registered: that layer never ran
    return static_cast<double>(after.counterDelta(before, name));
}

// ---- host record ------------------------------------------------------

struct CpuTimes
{
    double steal = 0;
    double total = 0;
};

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; i++) {
        double v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

/** Filesystem type of the mount holding @p path (/proc/mounts). */
std::string
filesystemOf(const fs::path &path)
{
    std::error_code ec;
    const std::string p = fs::weakly_canonical(path, ec).string();
    std::ifstream in("/proc/mounts");
    std::string dev, mnt, type, rest, best = "unknown";
    std::size_t bestLen = 0;
    while (in >> dev >> mnt >> type && std::getline(in, rest)) {
        const bool under = p == mnt || mnt == "/" ||
                           p.rfind(mnt + "/", 0) == 0;
        if (under && mnt.size() >= bestLen) {
            best = type;
            bestLen = mnt.size();
        }
    }
    return best;
}

// ---- set-up -------------------------------------------------------------

EnvyConfig
storeConfig(const WorkloadSpec &spec, std::uint64_t keys,
            const fs::path &persistPath)
{
    // The envy_served defaults: 4 store workers, 1 cleaner; the
    // geometry carries bench_serve's 25% key headroom.
    EnvyConfig cfg;
    cfg.geom = envy::serve::kvGeometryFor(keys + keys / 4);
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    if (spec.durable)
        cfg.persistPath = persistPath.string();
    return cfg;
}

void
removeStoreFiles(const fs::path &path)
{
    for (const char *suffix : {"", ".journal", ".journal.tmp"})
        fs::remove(path.string() + suffix);
}

/** Every key at version 1, written by its owner's thread. */
void
prefill(KvEngine &engine, const KeySpace &keys, const Ledger &ledger)
{
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kConnections; t++)
        threads.emplace_back([&, t] {
            for (std::uint64_t k = 0; k < keys.size(); k++) {
                if (keys.owner(k) != t)
                    continue;
                const std::string v = ledger.prefillValue(k);
                if (engine.put(k, {reinterpret_cast<const std::uint8_t *>(
                                       v.data()),
                                   v.size()}) != Status::Ok)
                    failures++;
            }
        });
    for (std::thread &t : threads)
        t.join();
    if (failures)
        throw std::runtime_error("prefill: " + std::to_string(failures) +
                                 " puts failed");
}

// ---- phases ----------------------------------------------------------------

/** One stretch of a phase between two others (phases alternate). */
struct Segment
{
    std::int64_t startNs = 0;
    double steal = 0; //!< host steal share while it ran
    double serverCpuS = 0; //!< process CPU minus the client threads'
    std::vector<std::uint64_t> firstId; //!< per connection
    std::vector<std::uint64_t> endId;
};

/** A phase kind on one connection set, run as several segments. */
struct Phase
{
    const char *name;
    PhaseKind kind;
    double seconds; //!< per segment
    std::vector<PhaseStats> st;
    std::vector<Segment> segments;

    Phase(const char *n, PhaseKind k, double s)
        : name(n), kind(k), seconds(s), st(kConnections)
    {
    }

    std::uint64_t
    sum(std::uint64_t PhaseStats::*field) const
    {
        std::uint64_t n = 0;
        for (const PhaseStats &s : st)
            n += s.*field;
        return n;
    }

    std::vector<Sample>
    samples() const
    {
        std::vector<Sample> all;
        for (const PhaseStats &s : st)
            all.insert(all.end(), s.samples.begin(), s.samples.end());
        return all;
    }

    /** The samples of each segment: by answer time when closed (the
     *  deadline cut), by due time when open. */
    std::vector<std::vector<Sample>>
    bySegment() const
    {
        std::vector<std::vector<Sample>> out(segments.size());
        const auto len = static_cast<std::int64_t>(seconds * 1e9);
        for (const Sample &x : samples()) {
            const std::int64_t at =
                kind == PhaseKind::Closed ? x.doneNs : x.dueNs;
            for (std::size_t i = 0; i < segments.size(); i++)
                if (at >= segments[i].startNs &&
                    at <= segments[i].startNs + len) {
                    out[i].push_back(x);
                    break;
                }
        }
        return out;
    }

    bool
    contains(unsigned conn, std::uint64_t id) const
    {
        for (const Segment &g : segments)
            if (id >= g.firstId[conn] && id < g.endId[conn])
                return true;
        return false;
    }
};

/** Latencies in us of @p samples, optionally of one class only. */
std::vector<double>
latencies(const std::vector<Sample> &samples, int cls = -1)
{
    std::vector<double> v;
    for (const Sample &x : samples)
        if (cls < 0 || static_cast<int>(x.cls) == cls)
            v.push_back(static_cast<double>(x.doneNs - x.dueNs) / 1e3);
    return v;
}

/**
 * The segments that saw the least host steal: the calmer half.  On a
 * shared host the hypervisor takes 0-20% of the CPU in bursts of
 * about a second, and throughput and latency follow it; the calmer
 * half measures the program rather than its neighbours.
 */
std::vector<std::size_t>
calmHalf(const Phase &ph)
{
    std::vector<std::size_t> idx(ph.segments.size());
    for (std::size_t i = 0; i < idx.size(); i++)
        idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return ph.segments[a].steal < ph.segments[b].steal;
    });
    idx.resize((idx.size() + 1) / 2);
    return idx;
}

/** Median over the calm segments of per-segment answers/s. */
double
segmentThroughput(const Phase &ph)
{
    const auto segs = ph.bySegment();
    std::vector<double> v;
    for (std::size_t i : calmHalf(ph))
        v.push_back(static_cast<double>(segs[i].size()) / ph.seconds);
    return median(v);
}

/**
 * Server CPU microseconds per answered request over the segments of
 * @p ph: pooled (total CPU ÷ total answers) when @p pooled, else the
 * median of the per-segment figures.  Steal is not charged to
 * threads, so this cost holds still on a busy host where wall-clock
 * figures swing with the neighbours.  Pooling spreads each
 * background clean over the requests whose writes caused it.
 */
double
cpuPerRequest(const Phase &ph, bool pooled)
{
    const auto segs = ph.bySegment();
    double cpu = 0, answers = 0;
    std::vector<double> v;
    for (std::size_t i = 0; i < segs.size(); i++) {
        const auto n = static_cast<double>(segs[i].size());
        cpu += ph.segments[i].serverCpuS;
        answers += n;
        v.push_back(ratio(ph.segments[i].serverCpuS * 1e6, n));
    }
    return pooled ? ratio(cpu * 1e6, answers) : median(v);
}

/** Median over the calm segments of the segment's latency percentile. */
double
segmentPercentile(const Phase &ph, double p, int cls = -1)
{
    const auto segs = ph.bySegment();
    std::vector<double> v;
    for (std::size_t i : calmHalf(ph)) {
        auto l = latencies(segs[i], cls);
        if (!l.empty())
            v.push_back(percentile(l, p));
    }
    return median(v);
}

void
runPhase(std::vector<std::unique_ptr<Connection>> &conns, Phase &ph,
         const WorkloadSpec &spec, std::uint64_t seed, unsigned index)
{
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(ph.seconds));
    Segment seg;
    const CpuTimes cpu0 = readCpuTimes();
    const double proc0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    double recv0 = 0;
    for (const auto &c : conns)
        recv0 += c->receiverCpuSeconds();
    std::vector<double> senderCpu(kConnections);
    seg.startNs = nowNs();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kConnections; i++) {
        seg.firstId.push_back(conns[i]->nextRequestId());
        threads.emplace_back([&, i] {
            const double t0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            if (ph.kind == PhaseKind::Closed)
                conns[i]->runClosed(end, ph.st[i]);
            else
                conns[i]->runOpen(end, spec.openRate / kConnections,
                                  deriveSeed(seed, 1000 * index + i),
                                  ph.st[i]);
            senderCpu[i] = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
        });
    }
    for (std::thread &t : threads)
        t.join();
    const CpuTimes cpu1 = readCpuTimes();
    seg.steal = ratio(cpu1.steal - cpu0.steal, cpu1.total - cpu0.total);
    double recv1 = 0;
    for (const auto &c : conns)
        recv1 += c->receiverCpuSeconds();
    seg.serverCpuS = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - proc0 -
                     (recv1 - recv0);
    for (double c : senderCpu)
        seg.serverCpuS -= c;
    for (unsigned i = 0; i < kConnections; i++)
        seg.endId.push_back(conns[i]->nextRequestId());
    ph.segments.push_back(std::move(seg));
}

/** The engine-direct phase: the op stream called on KvEngine. */
struct KvPhase
{
    std::vector<double> getUs;
    std::vector<double> putUs;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    double seconds = 0;
};

void
kvWorker(KvEngine &engine, Ledger &ledger,
         const std::vector<OpStream *> &streams, Clock::time_point end,
         KvPhase &out)
{
    auto fail = [&out](std::string why) {
        out.failed++;
        if (out.errors.size() < 8)
            out.errors.push_back(std::move(why));
    };
    while (Clock::now() < end) {
        for (OpStream *s : streams) {
            const GenRequest req = s->next();
            for (const Access &a : req.ops) {
                if (a.op == Op::Get) {
                    const std::uint32_t lo = ledger.acked(a.key);
                    const std::int64_t t0 = nowNs();
                    KvEngine::GetResult r = engine.get(a.key);
                    const std::int64_t t1 = nowNs();
                    out.getUs.push_back(static_cast<double>(t1 - t0) / 1e3);
                    std::string why;
                    if (r.status != Status::Ok)
                        fail("kv GET key " + std::to_string(a.key) +
                             ": status " +
                             envy::serve::statusName(r.status));
                    else if (!ledger.checkRead(a.key, r.value, lo,
                                               ledger.sent(a.key), &why))
                        fail("kv " + why);
                } else {
                    const std::string v = ledger.beginWrite(a.key, a.delta);
                    const std::int64_t t0 = nowNs();
                    const Status st = engine.put(
                        a.key, {reinterpret_cast<const std::uint8_t *>(
                                    v.data()),
                                v.size()});
                    const std::int64_t t1 = nowNs();
                    out.putUs.push_back(static_cast<double>(t1 - t0) / 1e3);
                    ledger.endWrite(a.key, st == Status::Ok);
                    if (st != Status::Ok)
                        fail("kv PUT key " + std::to_string(a.key) +
                             ": status " + envy::serve::statusName(st));
                }
                out.ops++;
            }
        }
    }
}

KvPhase
runKv(KvEngine &engine, Ledger &ledger,
      std::vector<std::unique_ptr<OpStream>> &streams, unsigned threads,
      double seconds)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // Thread t runs connection t's stream, so key ownership holds; a
    // single thread runs all four streams round-robin.
    std::vector<KvPhase> parts(threads);
    std::vector<std::vector<OpStream *>> mine(threads);
    for (unsigned i = 0; i < kConnections; i++)
        mine[i % threads].push_back(streams[i].get());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++)
        pool.emplace_back([&, t] {
            kvWorker(engine, ledger, mine[t], end, parts[t]);
        });
    for (std::thread &t : pool)
        t.join();
    KvPhase all;
    all.seconds = secondsSince(start);
    for (KvPhase &p : parts) {
        all.getUs.insert(all.getUs.end(), p.getUs.begin(), p.getUs.end());
        all.putUs.insert(all.putUs.end(), p.putUs.begin(), p.putUs.end());
        all.ops += p.ops;
        all.failed += p.failed;
        for (std::string &e : p.errors)
            if (all.errors.size() < 8)
                all.errors.push_back(std::move(e));
    }
    return all;
}

/** Every key reads back as its last acknowledged write. */
std::uint64_t
finalCheck(KvEngine &engine, const KeySpace &keys, const Ledger &ledger,
           std::vector<std::string> &errors)
{
    std::atomic<std::uint64_t> bad{0};
    std::mutex mu;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kConnections; t++)
        threads.emplace_back([&, t] {
            for (std::uint64_t k = t; k < keys.size(); k += kConnections) {
                const KvEngine::GetResult r = engine.get(k);
                std::string why = "final key " + std::to_string(k) +
                                  ": status " +
                                  envy::serve::statusName(r.status);
                if (r.status == Status::Ok &&
                    ledger.checkFinal(k, r.value, &why))
                    continue;
                bad++;
                std::lock_guard<std::mutex> lk(mu);
                if (errors.size() < 8)
                    errors.push_back("final: " + why);
            }
        });
    for (std::thread &t : threads)
        t.join();
    return bad;
}

// ---- traced spans --------------------------------------------------------

struct TracedConn
{
    TimedStream *client = nullptr;
    TimedStream *server = nullptr;
};

using StampMap = std::unordered_map<std::uint64_t, std::int64_t>;

StampMap
stampMap(const std::vector<StampEvent> &events)
{
    StampMap m;
    m.reserve(events.size());
    for (const StampEvent &e : events)
        m.emplace(e.requestId, e.ns);
    return m;
}

struct SpanStats
{
    std::vector<double> c2s;
    std::vector<double> s2c;
    std::vector<double> residence;
};

/**
 * Join the four stamps of every traced open-segment request, write
 * its spans as JSON lines, and return the layer durations.  Spans of
 * one request share the trace id c<conn>.r<requestId>; the client
 * span is the parent of the other three.  The traced closed segments
 * only measure trace.overhead; their spans would run to hundreds of
 * MB and are not written.
 */
SpanStats
collectSpans(const std::vector<TracedConn> &traced, const Phase &open,
             const fs::path &out)
{
    SpanStats s;
    std::ofstream f(out);
    for (unsigned c = 0; c < traced.size(); c++) {
        const StampMap cw = stampMap(traced[c].client->writes());
        const StampMap cr = stampMap(traced[c].client->reads());
        const StampMap sr = stampMap(traced[c].server->reads());
        const StampMap sw = stampMap(traced[c].server->writes());
        for (const auto &[id, t0] : cw) {
            auto a = sr.find(id), b = sw.find(id), e = cr.find(id);
            if (a == sr.end() || b == sw.end() || e == cr.end() ||
                !open.contains(c, id))
                continue;
            std::string tid = "c";
            tid += std::to_string(c);
            tid += ".r";
            tid += std::to_string(id);
            auto span = [&](const char *name, std::int64_t from,
                            std::int64_t to, bool root) {
                f << "{\"trace\":\"" << tid << "\",\"span\":\"" << name
                  << "\",\"id\":\"" << tid << "." << name
                  << "\",\"parent\":"
                  << (root ? std::string("null")
                           : "\"" + tid + ".client.request\"")
                  << ",\"start_ns\":" << from << ",\"end_ns\":" << to
                  << "}\n";
            };
            span("client.request", t0, e->second, true);
            span("transport.c2s", t0, a->second, false);
            span("server.residence", a->second, b->second, false);
            span("transport.s2c", b->second, e->second, false);
            s.c2s.push_back(static_cast<double>(a->second - t0) / 1e3);
            s.residence.push_back(
                static_cast<double>(b->second - a->second) / 1e3);
            s.s2c.push_back(static_cast<double>(e->second - b->second) / 1e3);
        }
    }
    return s;
}

// ---- report --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

// Must match BENCHMARK.json (tests/smoke_test.py checks both ways).
const std::vector<std::string> kEndToEnd = {"setup_s", "cpu_us_per_op"};

const std::vector<std::string> kPerLayer = {
    "ops_per_s", "lat_p50_us", "lat_p99_us", "open_cpu_us_per_op",
    "get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us",
    "txn_p50_us", "txn_p99_us", "fail_frac", "flash_write_amp",
    "restart_s",
    "loadgen.late_p99_us", "loadgen.holds",
    "transport.c2s_p50_us", "transport.c2s_p99_us",
    "transport.s2c_p50_us", "transport.s2c_p99_us",
    "protocol.bytes_per_op",
    "server.residence_p50_us", "server.residence_p99_us",
    "server.exec_p50_us", "server.exec_p99_us", "server.queued_frac",
    "server.shed_frac", "server.acks_per_commit",
    "kv.get_p50_us", "kv.get_p99_us", "kv.put_p50_us", "kv.put_p99_us",
    "kv.ops_per_s", "kv.ops_per_s_1t",
    "ctl.host_reads_per_op", "ctl.host_writes_per_op",
    "ctl.buffer_hit_ratio", "ctl.cows_per_op", "ctl.backpressure_waits",
    "cleaner.cleans", "cleaner.copied_per_flush",
    "cleaner.victim_live_mean",
    "flash.programs_per_op", "flash.page_reads_per_op", "flash.erases",
    "persist.journal_bytes_per_put", "persist.journal_flushes_per_put",
    "persist.epoch_p50_us", "persist.epoch_p99_us",
    "persist.sync_p50_us", "persist.sync_p99_us",
    "setup.store_s", "setup.prefill_s",
    "trace.overhead", "host.steal_frac", "guard.valid"};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            ch = ' ';
        out += ch;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        std::uint64_t samples)
    {
        if (!std::isfinite(value))
            value = 0;
        metrics_.push_back({name, value, unit, samples});
    }

    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics_)
            if (m.name == name)
                return &m;
        return nullptr;
    }

    void
    printTable() const
    {
        std::printf("%-32s %16s  %-12s %s\n", "metric", "value", "unit",
                    "samples");
        for (const Metric &m : metrics_)
            std::printf("%-32s %16.6g  %-12s %llu\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
    }

    /** {"name": {"value", "unit"}} for @p names, all of them. */
    std::string
    json(const std::vector<std::string> &names) const
    {
        std::string out = "{";
        for (const std::string &n : names) {
            const Metric *m = find(n);
            if (!m)
                throw std::logic_error("metric never computed: " + n);
            if (out.size() > 1)
                out += ", ";
            out += jsonString(n) + ": {\"value\": " + number(m->value) +
                   ", \"unit\": " + jsonString(m->unit) + "}";
        }
        return out + "}";
    }

  private:
    std::vector<Metric> metrics_;
};

struct Guard
{
    std::string name;
    bool ok = true;
    std::string detail;
};

std::uint64_t
count(const std::vector<double> &v)
{
    return v.size();
}

// ---- the run ---------------------------------------------------------------

int
run(const Args &args)
{
    const WorkloadSpec &spec = *findWorkload(args.workload);
    const KeySpace keys(spec);
    Ledger ledger(keys.size(), spec.valueBytes);
    const fs::path dataDir = args.dataDir;
    fs::create_directories(dataDir);
    // One store file per process: concurrent runs in one checkout
    // must not share a MAP_SHARED store and its journal.
    const fs::path persistPath =
        dataDir / (std::string(spec.name) + "-" +
                   std::to_string(::getpid()) + ".store");
    const EnvyConfig cfg = storeConfig(spec, keys.size(), persistPath);

    std::printf("envybench %s seed=%llu seconds=%g trace=%d\n", spec.name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    // Set-up, several times; the last store is the one measured.
    std::unique_ptr<EnvyStore> store;
    std::unique_ptr<KvEngine> engine;
    std::vector<double> setupS, storeS, prefillS;
    for (int rep = 0; rep < kSetups; rep++) {
        engine.reset();
        store.reset();
        if (spec.durable)
            removeStoreFiles(persistPath);
        ledger.reset();
        const Clock::time_point t0 = Clock::now();
        store = std::make_unique<EnvyStore>(cfg);
        engine = std::make_unique<KvEngine>(*store,
                                            envy::serve::KvEngineConfig{});
        const double built = secondsSince(t0);
        prefill(*engine, keys, ledger);
        if (spec.durable)
            store->persistCommit();
        setupS.push_back(secondsSince(t0));
        storeS.push_back(built);
        prefillS.push_back(setupS.back() - built);
    }

    std::vector<std::unique_ptr<OpStream>> streams;
    for (unsigned i = 0; i < kConnections; i++)
        streams.push_back(
            std::make_unique<OpStream>(spec, keys, i, args.seed));

    // envy_served's stack: 4 protocol workers over the TCP transport;
    // the put-durable workload adds --persist --durable-acks
    // --sync-acks.
    envy::serve::ServeConfig serveCfg;
    serveCfg.workers = 4;
    serveCfg.durableAcks = spec.durable;
    serveCfg.syncAcks = spec.durable;
    auto server =
        std::make_unique<envy::serve::Server>(*store, *engine, serveCfg);
    envy::serve::TcpListener listener(0);

    std::vector<TracedConn> traced;
    auto connect = [&](bool timed) {
        std::vector<std::unique_ptr<Connection>> conns;
        for (unsigned i = 0; i < kConnections; i++) {
            envy::serve::ByteStreamPtr c =
                envy::serve::tcpConnect("127.0.0.1", listener.port());
            envy::serve::ByteStreamPtr s = listener.accept();
            if (timed) {
                auto tc = std::make_unique<TimedStream>(std::move(c));
                auto ts = std::make_unique<TimedStream>(std::move(s));
                traced.push_back({tc.get(), ts.get()});
                c = std::move(tc);
                s = std::move(ts);
            }
            server->attach(std::move(s));
            conns.push_back(std::make_unique<Connection>(
                i, std::move(c), spec, ledger, *streams[i], args.tamper));
        }
        return conns;
    };

    auto plain = connect(false);
    std::vector<std::unique_ptr<Connection>> timed;
    if (args.trace)
        timed = connect(true);

    // Phases alternate in rounds, so a burst of host noise lands in
    // some rounds only and the per-round medians shrug it off.
    // Untraced: closed then open, half the time each.  Traced: that
    // pair untraced (for trace.overhead and the per-op latencies),
    // the pair traced, and at the end the engine-direct phase from 4
    // threads and from 1.
    const double S = args.seconds;
    const double served =
        args.trace ? 0.8 * S / (4 * kRounds) : S / (2 * kRounds);
    Phase closedU{"closed", PhaseKind::Closed, served};
    Phase openU{"open", PhaseKind::Open, served};
    Phase closedT{"closed-traced", PhaseKind::Closed, served};
    Phase openT{"open-traced", PhaseKind::Open, served};

    // One unmeasured round first: the first second after set-up runs
    // slow (fresh threads, cold caches and socket buffers).
    Phase warmClosed{"warm-up", PhaseKind::Closed, 1.0};
    Phase warmOpen{"warm-up", PhaseKind::Open, 0.5};
    runPhase(plain, warmClosed, spec, args.seed, 4 * kRounds);
    runPhase(plain, warmOpen, spec, args.seed, 4 * kRounds + 1);

    const MetricsSnapshot snap0 = store->metrics().snapshot();
    const CpuTimes cpu0 = readCpuTimes();
    for (unsigned round = 0; round < kRounds; round++) {
        runPhase(plain, closedU, spec, args.seed, 4 * round);
        runPhase(plain, openU, spec, args.seed, 4 * round + 1);
        if (args.trace) {
            runPhase(timed, closedT, spec, args.seed, 4 * round + 2);
            runPhase(timed, openT, spec, args.seed, 4 * round + 3);
        }
    }
    const MetricsSnapshot snap1 = store->metrics().snapshot();
    const CpuTimes cpu1 = readCpuTimes();

    KvPhase kv4, kv1;
    if (args.trace) {
        kv4 = runKv(*engine, ledger, streams, kConnections, S / 10);
        kv1 = runKv(*engine, ledger, streams, 1, S / 10);
    }

    server->stop();
    std::uint64_t stray = 0;
    for (auto &c : plain) {
        c->shutdown();
        stray += c->strayAnswers();
    }
    for (auto &c : timed) {
        c->shutdown();
        stray += c->strayAnswers();
    }

    SpanStats spans;
    if (args.trace)
        spans = collectSpans(
            traced, openT,
            dataDir / ("trace-" + std::string(spec.name) + "-seed" +
                       std::to_string(args.seed) + ".jsonl"));

    std::vector<std::string> errors;
    std::uint64_t finalBad = finalCheck(*engine, keys, ledger, errors);

    // The device-barrier floor: persistSync() on the idle store.
    std::vector<double> syncUs;
    {
        const Clock::time_point t0 = Clock::now();
        while (syncUs.size() < 20 ||
               (syncUs.size() < 1000 && secondsSince(t0) < 0.3)) {
            const std::int64_t a = nowNs();
            store->persistSync();
            syncUs.push_back(static_cast<double>(nowNs() - a) / 1e3);
        }
    }

    double restartS = 0;
    if (spec.durable) {
        // Orderly shutdown, then reopen in place and check again.
        server.reset();
        plain.clear();
        timed.clear();
        engine.reset();
        store.reset();
        const Clock::time_point t0 = Clock::now();
        store = std::make_unique<EnvyStore>(cfg);
        engine = KvEngine::open(*store);
        restartS = secondsSince(t0);
        finalBad += finalCheck(*engine, keys, ledger, errors);
    }

    // ---- metrics ----
    std::vector<const Phase *> phases = {&warmClosed, &warmOpen, &closedU,
                                         &openU};
    if (args.trace) {
        phases.push_back(&closedT);
        phases.push_back(&openT);
    }
    // Every answer counts toward attempted and failed; the per-request
    // ratios use the measured phases only, like the registry deltas.
    std::uint64_t attempted = 0, failed = 0, requests = 0, mutating = 0,
                  putOps = 0, putBytes = 0, holds = 0;
    std::vector<double> late;
    for (const Phase *ph : phases) {
        attempted += ph->sum(&PhaseStats::attempted);
        failed += ph->sum(&PhaseStats::failed);
        holds += ph->sum(&PhaseStats::holds);
        for (const PhaseStats &s : ph->st)
            for (const std::string &e : s.errors)
                if (errors.size() < 16)
                    errors.push_back(std::string(ph->name) + ": " + e);
        if (ph == &warmClosed || ph == &warmOpen)
            continue;
        requests += ph->sum(&PhaseStats::requestsDone);
        mutating += ph->sum(&PhaseStats::mutatingAcked);
        putOps += ph->sum(&PhaseStats::putOpsAcked);
        putBytes += ph->sum(&PhaseStats::putBytesAcked);
        if (ph->kind == PhaseKind::Open)
            for (const PhaseStats &s : ph->st)
                late.insert(late.end(), s.lateUs.begin(), s.lateUs.end());
    }
    attempted += kv4.ops + kv1.ops;
    failed += kv4.failed + kv1.failed + finalBad + stray;
    for (const KvPhase *k : {&kv4, &kv1})
        for (const std::string &e : k->errors)
            errors.push_back("kv: " + e);
    if (stray)
        errors.push_back(std::to_string(stray) + " answers to no request");

    auto d = [&](const std::string &n) {
        return counterDelta(snap1, snap0, n);
    };
    const double reqs = static_cast<double>(requests);
    Report r;

    // End to end (untraced phases only): medians over the rounds.
    const std::vector<Sample> openAll = openU.samples();
    r.add("setup_s", median(setupS), "s", setupS.size());
    r.add("ops_per_s", segmentThroughput(closedU), "requests/s",
          closedU.samples().size());
    r.add("lat_p50_us", segmentPercentile(openU, 0.50), "us", openAll.size());
    r.add("lat_p99_us", segmentPercentile(openU, 0.99), "us", openAll.size());
    r.add("cpu_us_per_op", cpuPerRequest(closedU, true), "us",
          closedU.samples().size());
    r.add("open_cpu_us_per_op", cpuPerRequest(openU, false), "us",
          openAll.size());
    const char *names[] = {"get", "put", "txn"};
    for (int c = 0; c < 3; c++) {
        const auto l = latencies(openAll, c);
        r.add(std::string(names[c]) + "_p50_us",
              segmentPercentile(openU, 0.50, c), "us", l.size());
        r.add(std::string(names[c]) + "_p99_us",
              segmentPercentile(openU, 0.99, c), "us", l.size());
    }
    r.add("fail_frac", ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
          "ratio", attempted);
    const double geomPage = cfg.geom.pageSize;
    r.add("flash_write_amp",
          ratio(d("flash.programs") * geomPage, static_cast<double>(putBytes)),
          "bytes/byte", putOps);
    r.add("restart_s", restartS, "s", spec.durable ? 1 : 0);

    // Per layer.
    r.add("loadgen.late_p99_us", percentile(late, 0.99), "us", count(late));
    r.add("loadgen.holds", static_cast<double>(holds), "count", attempted);
    r.add("transport.c2s_p50_us", percentile(spans.c2s, 0.50), "us",
          count(spans.c2s));
    r.add("transport.c2s_p99_us", percentile(spans.c2s, 0.99), "us",
          count(spans.c2s));
    r.add("transport.s2c_p50_us", percentile(spans.s2c, 0.50), "us",
          count(spans.s2c));
    r.add("transport.s2c_p99_us", percentile(spans.s2c, 0.99), "us",
          count(spans.s2c));
    r.add("protocol.bytes_per_op",
          ratio(d("serve.bytes_in") + d("serve.bytes_out"), reqs), "bytes",
          requests);
    r.add("server.residence_p50_us", percentile(spans.residence, 0.50), "us",
          count(spans.residence));
    r.add("server.residence_p99_us", percentile(spans.residence, 0.99), "us",
          count(spans.residence));
    const HistDelta exec = histDelta(snap1, snap0, "serve.exec_us");
    r.add("server.exec_p50_us", exec.quantile(0.50), "us", exec.count);
    r.add("server.exec_p99_us", exec.quantile(0.99), "us", exec.count);
    r.add("server.queued_frac", ratio(d("serve.queued"), reqs), "ratio",
          requests);
    r.add("server.shed_frac", ratio(d("serve.shed"), reqs), "ratio",
          requests);
    r.add("server.acks_per_commit",
          ratio(static_cast<double>(mutating), d("serve.commit_batches")),
          "requests", static_cast<std::uint64_t>(d("serve.commit_batches")));
    r.add("kv.get_p50_us", percentile(kv4.getUs, 0.50), "us",
          count(kv4.getUs));
    r.add("kv.get_p99_us", percentile(kv4.getUs, 0.99), "us",
          count(kv4.getUs));
    r.add("kv.put_p50_us", percentile(kv4.putUs, 0.50), "us",
          count(kv4.putUs));
    r.add("kv.put_p99_us", percentile(kv4.putUs, 0.99), "us",
          count(kv4.putUs));
    r.add("kv.ops_per_s", ratio(static_cast<double>(kv4.ops), kv4.seconds),
          "ops/s", kv4.ops);
    r.add("kv.ops_per_s_1t", ratio(static_cast<double>(kv1.ops), kv1.seconds),
          "ops/s", kv1.ops);
    r.add("ctl.host_reads_per_op", ratio(d("ctl.host_reads"), reqs),
          "accesses", requests);
    r.add("ctl.host_writes_per_op", ratio(d("ctl.host_writes"), reqs),
          "accesses", requests);
    r.add("ctl.buffer_hit_ratio",
          ratio(d("ctl.buffer_hits"), d("ctl.host_writes")), "ratio",
          static_cast<std::uint64_t>(d("ctl.host_writes")));
    r.add("ctl.cows_per_op", ratio(d("ctl.cows"), reqs), "pages", requests);
    r.add("ctl.backpressure_waits", d("ctl.backpressure_waits"), "count", 1);
    const double cleans = d("ctl.background_cleans");
    r.add("cleaner.cleans", cleans, "segments", 1);
    r.add("cleaner.copied_per_flush",
          ratio(d("cleaner.pages_copied"), d("buf.flushes")), "pages",
          static_cast<std::uint64_t>(d("buf.flushes")));
    const HistDelta victim = histDelta(snap1, snap0, "cleaner.victim_live");
    r.add("cleaner.victim_live_mean",
          ratio(victim.sum, static_cast<double>(victim.count)), "pages",
          victim.count);
    r.add("flash.programs_per_op", ratio(d("flash.programs"), reqs), "pages",
          requests);
    r.add("flash.page_reads_per_op", ratio(d("flash.page_reads"), reqs),
          "pages", requests);
    r.add("flash.erases", d("flash.erases"), "blocks", 1);
    r.add("persist.journal_bytes_per_put",
          ratio(d("persist.journal_bytes"), static_cast<double>(putOps)),
          "bytes", putOps);
    r.add("persist.journal_flushes_per_put",
          ratio(d("persist.journal_flushes"), static_cast<double>(putOps)),
          "flushes", putOps);
    const HistDelta epoch =
        histDelta(snap1, snap0, "persist.group_commit.epoch_us");
    r.add("persist.epoch_p50_us", epoch.quantile(0.50), "us", epoch.count);
    r.add("persist.epoch_p99_us", epoch.quantile(0.99), "us", epoch.count);
    r.add("persist.sync_p50_us", percentile(syncUs, 0.50), "us",
          count(syncUs));
    r.add("persist.sync_p99_us", percentile(syncUs, 0.99), "us",
          count(syncUs));
    r.add("setup.store_s", median(storeS), "s", storeS.size());
    r.add("setup.prefill_s", median(prefillS), "s", prefillS.size());
    r.add("trace.overhead",
          args.trace ? ratio(segmentThroughput(closedT),
                             segmentThroughput(closedU))
                     : 0,
          "ratio", args.trace ? 2 : 0);
    const double steal =
        ratio(cpu1.steal - cpu0.steal, cpu1.total - cpu0.total);
    r.add("host.steal_frac", steal, "ratio", 1);

    // Workload-validity guards: did the run exercise its layer?
    std::vector<Guard> guards;
    const double hit = r.find("ctl.buffer_hit_ratio")->value;
    const double acks = r.find("server.acks_per_commit")->value;
    const double lateP99 = r.find("loadgen.late_p99_us")->value;
    if (spec.durable)
        guards.push_back({"group-commit", acks > 1,
                          "acks per commit " + number(acks)});
    else if (spec.traffic == Traffic::Tpca)
        guards.push_back({"cleaning", cleans >= kMinCleans,
                          "background cleans " + number(cleans)});
    else
        guards.push_back({"request-path",
                          cleans == 0 && hit >= kMinBufferHitRatio,
                          "cleans " + number(cleans) +
                              ", buffer hit ratio " + number(hit)});
    guards.push_back({"generator-on-time", lateP99 <= kLateLimitUs,
                      "late p99 " + number(lateP99) + " us"});
    bool valid = true;
    for (const Guard &g : guards)
        valid = valid && g.ok;
    r.add("guard.valid", valid ? 1 : 0, "bool", guards.size());

    // ---- output ----
    const bool correct = failed == 0 && finalBad == 0;
    std::printf("host {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
                "\"persist_fs\": %s, \"steal_frac\": %s}\n",
                std::thread::hardware_concurrency(),
                jsonString("GCC " __VERSION__).c_str(),
                jsonString(ENVYBENCH_BUILD_TYPE).c_str(),
                jsonString(filesystemOf(dataDir)).c_str(),
                number(steal).c_str());
    for (const Guard &g : guards)
        std::printf("guard %-18s %s  (%s)\n", g.name.c_str(),
                    g.ok ? "ok" : "FAILED: run is invalid", g.detail.c_str());
    const auto closedSegs = closedU.bySegment();
    const auto openSegs = openU.bySegment();
    for (unsigned i = 0; i < kRounds; i++) {
        const Segment &c = closedU.segments[i];
        const Segment &o = openU.segments[i];
        const auto lat = latencies(openSegs[i]);
        const auto nc = static_cast<double>(closedSegs[i].size());
        const auto no = static_cast<double>(lat.size());
        std::printf("round %-2u closed %.0f requests/s, cpu %.1f us, "
                    "steal %.3f | open p50 %.1f p99 %.1f us, cpu %.1f us, "
                    "steal %.3f\n",
                    i, nc / closedU.seconds, ratio(c.serverCpuS * 1e6, nc),
                    c.steal, percentile(lat, 0.5), percentile(lat, 0.99),
                    ratio(o.serverCpuS * 1e6, no), o.steal);
    }
    r.printTable();
    for (const std::string &e : errors)
        std::fprintf(stderr, "envybench: check failed: %s\n", e.c_str());
    if (!valid)
        std::fprintf(stderr, "envybench: workload guard failed; this run "
                             "does not measure what its workload claims\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                r.json(args.trace ? kPerLayer : kEndToEnd).c_str());
    std::fflush(stdout);

    server.reset();
    plain.clear();
    timed.clear();
    engine.reset();
    store.reset();
    if (spec.durable)
        removeStoreFiles(persistPath);
    return correct ? 0 : 1;
}

} // namespace
} // namespace envybench

int
main(int argc, char **argv)
{
    const envybench::Args args = envybench::parseArgs(argc, argv);
    try {
        return envybench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "envybench: %s\n", e.what());
        return 1;
    }
}

#include "envysim/timed_system.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace envy {

namespace {

/** Times charged per device operation, derived from FlashTiming. */
struct OpTimes
{
    Tick program;
    Tick copy;  //!< cleaner page copy: wide read + program
    Tick erase;
};

/** Split a busy interval into flush/clean/erase buckets by counter
 *  deltas (wear-related slowdown is folded into the flush share). */
struct WorkCounters
{
    std::uint64_t flushes;
    std::uint64_t cleanPrograms;
    std::uint64_t erases;

    static WorkCounters
    of(EnvyStore &store)
    {
        // Erase attempts: a retried erase costs a whole erase again.
        const FlashArray &flash = store.flash();
        return {store.writeBuffer().metFlushes.value(),
                store.cleanerRef().metPagesCopied.value(),
                flash.metErases.value() + flash.metEraseRetries.value()};
    }
};

/**
 * Power-of-two latency histogram: bucket k holds [2^(k-1), 2^k),
 * bucket 0 holds {0}, and a percentile reports its bucket's
 * exclusive upper bound 2^k (Fig 15's write p99 column).
 */
class Pow2Histogram
{
  public:
    void
    sample(std::uint64_t v)
    {
        const int k = static_cast<int>(std::bit_width(v));
        ++buckets_[std::min(k, numBuckets - 1)];
        ++count_;
    }

    /** Upper bound of the bucket holding the @p p-th percentile. */
    std::uint64_t
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        const double target = static_cast<double>(count_) * p / 100.0;
        double seen = 0.0;
        for (int k = 0; k < numBuckets; ++k) {
            seen += static_cast<double>(buckets_[k]);
            if (seen >= target)
                return k == 0 ? 0 : 1ull << k;
        }
        return 1ull << (numBuckets - 1);
    }

  private:
    static constexpr int numBuckets = 64;
    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

} // namespace

double
TimedResult::lifetimeDays(const Geometry &geom,
                          std::uint64_t rated_cycles) const
{
    if (flushPagesPerSec <= 0.0)
        return 0.0;
    // Paper §5.5: lifetime = write capacity / page write rate, where
    // write capacity is physical pages times rated cycles and the
    // write rate counts the flush itself plus cleaning overhead.
    const double capacity = asDouble(geom.physicalPages()) *
                            static_cast<double>(rated_cycles);
    const double rate = flushPagesPerSec * (1.0 + cleaningCost);
    return capacity / rate / 86400.0;
}

TimedResult
runTimedSim(const TimedParams &params)
{
    EnvyConfig cfg = params.envy;
    cfg.autoDrain = false; // the timeline drives flushing
    EnvyStore store(cfg);
    TpcaWorkload tpca(params.tpca, params.seed ^ 0x5EEDull);
    Controller &ctl = store.controller();

    ENVY_ASSERT(tpca.footprintBytes() <= store.size(),
                "TPC-A database does not fit the store");

    const FlashTiming &ft = cfg.timing;
    const OpTimes op{ft.programTime, ft.readTime + ft.programTime,
                     ft.eraseTime};
    const std::uint32_t par = std::max<std::uint32_t>(
        params.parallelOps, 1);

    // ---- timeline state ----------------------------------------
    Tick free_at = 0;       // frontier of scheduled controller work
    Tick bg_debt = 0;       // busy time of applied-but-unpaid bg work
    Tick bg_blocked_until = 0;
    Tick now = 0;           // arrival clock

    // Window accumulators.
    const Tick warmup_end =
        static_cast<Tick>(params.warmupSeconds * 1e9);
    const Tick measure_end =
        warmup_end + static_cast<Tick>(params.measureSeconds * 1e9);
    bool in_window = false;
    Tick window_start = 0;

    double read_lat_sum = 0.0, write_lat_sum = 0.0;
    std::uint64_t read_count = 0, write_count = 0;
    Pow2Histogram write_hist;
    Tick host_busy = 0, flush_busy = 0, clean_busy = 0, erase_busy = 0;
    std::uint64_t completed = 0, stalls = 0;
    WorkCounters win0{};
    obs::MetricsSnapshot warmup_snap;

    auto chargeBackground = [&](const WorkCounters &before,
                                const WorkCounters &after) {
        const Tick f = (after.flushes - before.flushes) * op.program;
        const Tick c =
            (after.cleanPrograms - before.cleanPrograms) * op.copy;
        const Tick e = (after.erases - before.erases) * op.erase;
        if (in_window) {
            flush_busy += f / par;
            clean_busy += c / par;
            erase_busy += e / par;
        }
        return (f + c + e) / par;
    };

    // Run background work into the gap [free_at, until).
    auto advanceTo = [&](Tick until) {
        while (free_at < until) {
            if (bg_debt > 0) {
                const Tick pay = std::min<Tick>(bg_debt,
                                                until - free_at);
                bg_debt -= pay;
                free_at += pay;
                continue;
            }
            if (ctl.needsBackgroundFlush()) {
                if (free_at < bg_blocked_until) {
                    // Resume backoff (§3.4): sit out the quiet-down
                    // period, then work if the gap is still open.
                    free_at = std::min(bg_blocked_until, until);
                    continue;
                }
                const WorkCounters before = WorkCounters::of(store);
                ctl.flushOne();
                const WorkCounters after = WorkCounters::of(store);
                bg_debt += chargeBackground(before, after);
                continue;
            }
            free_at = until; // idle
        }
    };

    std::vector<StorageAccess> txn;
    Rng arrivals(params.seed);

    while (now < measure_end) {
        now += tpca.nextInterarrival(params.requestRate);
        tpca.nextTransaction(txn);

        if (!in_window && now >= warmup_end) {
            in_window = true;
            // Charged work begins at the service frontier, which can
            // already be past the arrival under overload.
            window_start = std::max(now, free_at);
            win0 = WorkCounters::of(store);
            warmup_snap = store.metrics().snapshot();
        }

        advanceTo(now);
        // Service start: queued behind earlier transactions if the
        // frontier is past the arrival.
        Tick t = std::max(free_at, now);
        // A long operation in progress is suspended.
        bool suspended = bg_debt > 0 && free_at <= now;

        const Tick host0 = t;
        Tick stall_busy = 0; // device time paid inline by stalls
        for (const StorageAccess &a : txn) {
            Tick lat = params.hostAccessTime;
            if (suspended) {
                lat += params.suspendPenalty;
                suspended = false;
            }
            if (a.isWrite) {
                const WorkCounters before = WorkCounters::of(store);
                std::uint8_t word[8] = {};
                const Controller::AccessOutcome out = ctl.write(
                    a.addr, std::span<const std::uint8_t>(
                                word, a.bytes));
                if (out.tlbMiss)
                    lat += params.tlbMissPenalty;
                if (out.cow)
                    lat += params.cowTransferTime;
                if (out.foregroundFlushes) {
                    // The stall pays for flush/clean/erase inline.
                    const WorkCounters after =
                        WorkCounters::of(store);
                    const Tick busy =
                        chargeBackground(before, after);
                    lat += busy;
                    stall_busy += busy;
                    if (in_window)
                        stalls += out.foregroundFlushes;
                }
                t += lat;
                if (in_window) {
                    write_lat_sum += static_cast<double>(lat);
                    ++write_count;
                    write_hist.sample(lat);
                }
            } else {
                if (ctl.probeRead(a.addr))
                    lat += params.tlbMissPenalty;
                t += lat;
                if (in_window) {
                    read_lat_sum += static_cast<double>(lat);
                    ++read_count;
                }
            }
        }
        // Host busy time follows the same charging window as the
        // device buckets (net of the stall-paid device work, which
        // lands in flush/clean/erase).
        if (in_window)
            host_busy += (t - host0) - stall_busy;
        // Completions count by *completion* time — under overload a
        // transaction arriving in the warmup may finish inside the
        // window and vice versa.
        if (t > warmup_end && t <= measure_end)
            ++completed;
        free_at = std::max(free_at, t);
        bg_blocked_until = free_at + params.resumeBackoff;
    }

    // Let the frontier reach the end of the window.
    advanceTo(measure_end);

    TimedResult r;
    r.requestedTps = params.requestRate;
    r.transactions = completed;
    // Throughput over the wall-clock window; busy fractions over the
    // controller timeline that the charged work actually occupied
    // (under overload service runs past the window's end).
    const double window_s =
        ticksToSeconds(measure_end - warmup_end);
    const Tick charge_end = std::max(free_at, measure_end);
    const double charged_s =
        window_start < charge_end
            ? ticksToSeconds(charge_end - window_start)
            : window_s;
    r.completedTps = static_cast<double>(completed) / window_s;
    r.readLatencyNs =
        read_count
            ? read_lat_sum / static_cast<double>(read_count)
            : 0.0;
    r.writeLatencyNs =
        write_count
            ? write_lat_sum / static_cast<double>(write_count)
            : 0.0;
    r.writeLatencyP99Ns = static_cast<double>(write_hist.percentile(99));

    const WorkCounters win1 = WorkCounters::of(store);
    const double charged_ns = charged_s * 1e9;
    r.fracRead = static_cast<double>(host_busy) / charged_ns;
    r.fracFlush = static_cast<double>(flush_busy) / charged_ns;
    r.fracClean = static_cast<double>(clean_busy) / charged_ns;
    r.fracErase = static_cast<double>(erase_busy) / charged_ns;
    r.fracIdle = std::max(
        0.0, 1.0 - r.fracRead - r.fracFlush - r.fracClean -
                 r.fracErase);

    const std::uint64_t flushes = win1.flushes - win0.flushes;
    r.flushPagesPerSec = static_cast<double>(flushes) / window_s;
    r.cleaningCost =
        flushes ? static_cast<double>(win1.cleanPrograms -
                                      win0.cleanPrograms) /
                      static_cast<double>(flushes)
                : 0.0;
    r.cleans = store.cleanerRef().metSegmentsCleaned.value();
    r.foregroundStalls = stalls;
    r.warmupMetrics = std::move(warmup_snap);
    r.finalMetrics = store.metrics().snapshot();
    return r;
}

} // namespace envy

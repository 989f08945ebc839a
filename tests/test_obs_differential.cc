/**
 * @file
 * Differential verification of the observability layer: every figure
 * the metrics registry reports is recomputed from an independent
 * source — brute-force recounts over the flash array's actual state,
 * host-side tallies of the accesses issued, and cross-component
 * conservation identities — and the two must agree exactly.
 *
 * The identities under a plain (transaction-free, fault-free) churn:
 *
 *   flash.programs  == buf.flushes + cleaner.pages_copied
 *                      (every program is a host flush or a cleaner
 *                      copy — nothing else touches flash)
 *   flash.programs  == flash.invalidations + sum(liveCount(seg))
 *                      (every programmed slot is either still live
 *                      or was invalidated; recounted from the array)
 *   flash.erases    == sum(eraseCycles(seg))   (brute-force recount)
 *   erase-count delta == cleaner.segments_cleaned + 2 * wear.rotations
 *                      (a clean erases its victim once, a wear
 *                      rotation erases two segments)
 *   buf.inserts     == buf.flushes + occupancy gauge == buffer.size()
 *
 * Plus: snapshots from `--jobs 1` and `--jobs 4` sweeps are
 * byte-identical (the parallel determinism contract extends to the
 * observability layer), and the Fig 6 bench's printed cleaning-cost
 * cells provably equal the `sim.cleaning_cost` gauge embedded in its
 * JSON metrics block.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "envysim/crash_explorer.hh"
#include "envysim/experiment.hh"
#include "envysim/parallel.hh"
#include "envysim/policy_sim.hh"
#include "sim/random.hh"
#include "txn/shadow.hh"
#include "db/tpca_db.hh"

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

std::uint64_t
countShadows(FlashArray &flash)
{
    std::uint64_t shadows = 0;
    for (std::uint32_t s = 0; s < flash.numSegments(); ++s)
        flash.forEachShadow(SegmentId{s}, [&](SlotId) { ++shadows; });
    return shadows;
}

/**
 * The conservation identities, against brute-force recounts.
 * @p base is a snapshot taken right after construction: populate()
 * programs the initial image without buffer flushes, so the
 * programs-breakdown identity holds on deltas from there.
 */
void
expectConservation(EnvyStore &store, const obs::MetricsSnapshot &base,
                   const obs::MetricsSnapshot &snap)
{
    ASSERT_EQ(countShadows(store.flash()), 0u);
    // Write amplification's numerator, recounted two ways.
    EXPECT_EQ(snap.counterDelta(base, "flash.programs"),
              snap.counterDelta(base, "buf.flushes") +
                  snap.counterDelta(base, "cleaner.pages_copied"));
    EXPECT_EQ(snap.counter("flash.programs"),
              snap.counter("flash.invalidations") +
                  recountLive(store.flash()));
    EXPECT_EQ(snap.counter("flash.erases"),
              recountErases(store.flash()));
    EXPECT_EQ(snap.counter("buf.inserts"),
              snap.counter("buf.flushes") +
                  store.writeBuffer().size());
    EXPECT_EQ(snap.gauge("buf.occupancy"),
              static_cast<double>(store.writeBuffer().size()));
}

TEST(ObsDifferential, ChurnMetricsMatchGroundTruth)
{
    EnvyConfig cfg = CrashExplorerConfig::churnStore();
    EnvyStore store(cfg);
    const obs::MetricsSnapshot base = store.metrics().snapshot();
    Rng rng(0xD1FFull);

    const std::uint64_t size = store.size();
    const std::uint32_t page = cfg.geom.pageSize;
    std::vector<std::uint8_t> buf;
    std::uint64_t host_writes = 0, host_reads = 0;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = rng.chance(0.7) ? rng.below(size / 4)
                                          : rng.below(size);
        std::uint64_t len = rng.between(1, 2 * page);
        len = std::min<std::uint64_t>(len, size - addr);
        buf.resize(len);
        // The controller counts host accesses per page touched.
        const std::uint64_t pages_touched =
            (addr + len - 1) / page - addr / page + 1;
        if (rng.chance(0.8)) {
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.next());
            store.write(addr, buf);
            host_writes += pages_touched;
        } else {
            store.read(addr, buf);
            host_reads += pages_touched;
        }
    }

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_EQ(snap.counter("ctl.host_writes"), host_writes);
    EXPECT_EQ(snap.counter("ctl.host_reads"), host_reads);
    EXPECT_GT(snap.counter("cleaner.segments_cleaned"), 0u)
        << "churn too small to exercise the cleaner";
    expectConservation(store, base, snap);

    // segments_cleaned vs the erase count: with wear rotation
    // effectively off (wearThreshold = 0 rotates through the reserve
    // only, which still erases once per clean... so measure by
    // *delta* against a second churn burst) the cleaner is the only
    // erase client.
    const std::uint64_t erases0 = recountErases(store.flash());
    const std::uint64_t cleaned0 =
        snap.counter("cleaner.segments_cleaned");
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(size / 4);
        buf.resize(page);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        store.write(addr, buf);
    }
    const obs::MetricsSnapshot snap2 = store.metrics().snapshot();
    expectConservation(store, base, snap2);
    EXPECT_EQ(snap2.counter("cleaner.segments_cleaned") - cleaned0 +
                  2 * snap2.counterDelta(snap, "wear.rotations"),
              recountErases(store.flash()) - erases0)
        << "every erase is a clean (1 erase) or a rotation (2)";
}

TEST(ObsDifferential, TpcaMetricsMatchGroundTruth)
{
    EnvyConfig cfg = CrashExplorerConfig::tpcaStore();
    EnvyStore store(cfg);
    ShadowManager txns(store);

    TpcaDatabase::Params params;
    params.accounts = 200;
    params.accountsPerTeller = 50;
    params.tellersPerBranch = 2;
    params.recordBytes = cfg.geom.pageSize;
    TpcaDatabase db(store, params);

    Rng rng(0x7CA5ull);
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t a = rng.below(db.accounts());
        const std::int64_t amount =
            static_cast<std::int64_t>(rng.between(1, 500)) - 250;
        db.runAtomic(txns, a, amount);
    }
    store.flushAll();

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_GT(snap.counter("ctl.host_writes"), 0u);
    // Committed transactions release every shadow, so the same
    // conservation identities hold (shadow programs are cleaner /
    // flush programs like any other page write here: TpcaDatabase
    // writes records through the controller, shadows through the
    // transaction manager which appends + invalidates in pairs).
    ASSERT_EQ(countShadows(store.flash()), 0u);
    EXPECT_EQ(snap.counter("flash.programs"),
              snap.counter("flash.invalidations") +
                  recountLive(store.flash()));
    EXPECT_EQ(snap.counter("flash.erases"),
              recountErases(store.flash()));
}

TEST(ObsDifferential, PolicySimCostGaugeMatchesCounterDeltas)
{
    PolicySimParams p;
    p.numSegments = 32;
    p.pagesPerSegment = 256;
    p.utilization = 0.8;
    p.policy = PolicyKind::LocalityGathering;
    p.locality = LocalitySpec{0.5, 0.5};
    p.warmupChunks = 4;
    p.measureChunks = 2;
    const PolicySimResult r = runPolicySim(p);

    // The published gauge must equal the cost recomputed from the
    // windowed counter deltas of two *other* components' metrics.
    const std::uint64_t copied = r.finalMetrics.counterDelta(
        r.warmupMetrics, "cleaner.pages_copied");
    const std::uint64_t flushes = r.finalMetrics.counterDelta(
        r.warmupMetrics, "space.flushes");
    ASSERT_GT(flushes, 0u);
    EXPECT_DOUBLE_EQ(r.finalMetrics.gauge("sim.cleaning_cost"),
                     static_cast<double>(copied) /
                         static_cast<double>(flushes));
    EXPECT_DOUBLE_EQ(r.finalMetrics.gauge("sim.cleaning_cost"),
                     r.cleaningCost);
    EXPECT_EQ(r.finalMetrics.gauge("sim.measured_writes"),
              static_cast<double>(r.writes));
    EXPECT_EQ(r.finalMetrics.gauge("sim.measured_cleans"),
              static_cast<double>(r.cleans));
}

TEST(ObsDifferential, Fig06TableCellEqualsEmbeddedSnapshotGauge)
{
    // Exactly the smoke-mode sweep bench_fig06_cleaning_cost runs;
    // the bench prints ResultTable::num(gauge, 2), so table cell and
    // JSON metrics block agree if and only if this holds.
    for (const double u : {0.3, 0.8}) {
        PolicySimParams p;
        p.numSegments = 128;
        p.pagesPerSegment = 2048;
        p.utilization = u;
        p.policy = PolicyKind::LocalityGathering;
        p.locality = LocalitySpec{0.5, 0.5};
        p.warmupChunks = 4;
        p.measureChunks = 2;
        const PolicySimResult r = runPolicySim(p);
        EXPECT_EQ(
            ResultTable::num(r.finalMetrics.gauge("sim.cleaning_cost"),
                             2),
            ResultTable::num(r.cleaningCost, 2));
        EXPECT_DOUBLE_EQ(r.finalMetrics.gauge("sim.cleaning_cost"),
                         r.cleaningCost);
    }
}

TEST(ObsDifferential, SnapshotsIdenticalAcrossJobCounts)
{
    auto sweep = [](unsigned jobs) {
        std::vector<std::function<PolicySimResult()>> tasks;
        for (const double u : {0.3, 0.5, 0.8}) {
            tasks.push_back([u] {
                PolicySimParams p;
                p.numSegments = 32;
                p.pagesPerSegment = 256;
                p.utilization = u;
                p.policy = PolicyKind::Hybrid;
                p.warmupChunks = 4;
                p.measureChunks = 2;
                return runPolicySim(p);
            });
        }
        std::string all;
        for (const PolicySimResult &r :
             parallelMap<PolicySimResult>(jobs, std::move(tasks))) {
            all += r.warmupMetrics.toJson();
            all += r.finalMetrics.toJson();
        }
        return all;
    };

    const std::string serial = sweep(1);
    const std::string parallel4 = sweep(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel4);
}

} // namespace
} // namespace envy

/**
 * @file
 * Fault-injection subsystem: slot retirement from program
 * spec-failures (§5.1 status check), flush retries, transient bad
 * blocks, and recovery from power loss inside the wear-leveler's
 * segment swap and a shadow-transaction commit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "envy/envy_store.hh"
#include "faults/fault_injector.hh"
#include "faults/invariant_checker.hh"
#include "sim/random.hh"
#include "txn/shadow.hh"

namespace envy {
namespace {

/** Tiny store: 8 segments of 128 64-byte pages, plenty of slack. */
EnvyConfig
tinyStore()
{
    EnvyConfig cfg;
    cfg.geom.pageSize = 64;
    cfg.geom.blockBytes = 128;
    cfg.geom.blocksPerChip = 4;
    cfg.geom.numBanks = 2;
    cfg.geom.logicalPages = 640;
    cfg.geom.writeBufferPages = 16;
    cfg.partitionSize = 4;
    return cfg;
}

Geometry
tinyGeom()
{
    return tinyStore().geom;
}

// ---- slot retirement at the flash level --------------------------

TEST(Faults, ProgramSpecFailureRetiresTheSlotAndRetries)
{
    obs::MetricsRegistry metrics;
    FlashArray flash(tinyGeom(), FlashTiming{}, true, &metrics);
    const SegmentId seg{0};
    std::vector<std::uint8_t> data(flash.geom().pageSize, 0xAB);

    // Fail exactly the first program attempt.
    int calls = 0;
    flash.programFaultHook = [&](SegmentId, SlotId) {
        return ++calls == 1;
    };

    const auto r1 = flash.tryAppendPage(seg, LogicalPageId(7), data);
    EXPECT_TRUE(r1.failed);
    EXPECT_TRUE(flash.slotRetired(FlashPageAddr{seg, SlotId(0)}));
    EXPECT_EQ(flash.retiredCount(seg), PageCount(1));
    // One program spec-failure, counted once: as its retired slot.
    EXPECT_EQ(metrics.snapshot().counter("flash.slots_retired"), 1u);

    // The retry lands in the next slot and the data is intact.
    const auto r2 = flash.tryAppendPage(seg, LogicalPageId(7), data);
    ASSERT_FALSE(r2.failed);
    EXPECT_EQ(r2.addr.slot, SlotId(1));
    std::vector<std::uint8_t> got(flash.geom().pageSize);
    flash.readPage(r2.addr, got);
    EXPECT_EQ(got, data);

    // live + invalid + free + retired always covers the segment.
    EXPECT_EQ(flash.liveCount(seg) + flash.invalidCount(seg) +
                  flash.freeSlots(seg) + flash.retiredCount(seg),
              flash.pagesPerSegment());
}

TEST(Faults, RetirementSurvivesEraseAndIsSkippedAfterwards)
{
    FlashArray flash(tinyGeom(), FlashTiming{}, false);
    const SegmentId seg{3};

    flash.programFaultHook = [&](SegmentId, SlotId slot) {
        return slot == SlotId(0); // kill physical slot 0 for good
    };
    const auto fail = flash.tryAppendPage(seg, LogicalPageId(1));
    EXPECT_TRUE(fail.failed);
    const auto ok = flash.tryAppendPage(seg, LogicalPageId(1));
    ASSERT_FALSE(ok.failed);
    flash.programFaultHook = nullptr;

    flash.invalidatePage(ok.addr);
    flash.eraseSegment(seg);

    // The damage is physical: the slot is still retired, and the
    // next append skips straight over it.
    EXPECT_TRUE(flash.slotRetired(FlashPageAddr{seg, SlotId(0)}));
    EXPECT_EQ(flash.retiredCount(seg), PageCount(1));
    EXPECT_EQ(flash.freeSlots(seg), flash.pagesPerSegment() - PageCount(1));
    const auto after = flash.tryAppendPage(seg, LogicalPageId(2));
    ASSERT_FALSE(after.failed);
    EXPECT_EQ(after.addr.slot, SlotId(1));
}

TEST(Faults, SpecFailuresAreVisibleInTheStatusRegisters)
{
    obs::MetricsRegistry metrics;
    FlashArray flash(tinyGeom(), FlashTiming{}, false, &metrics);
    const SegmentId seg{5};
    EXPECT_FALSE(flash.segmentSpecFailed(seg));
    EXPECT_TRUE(flash.specFailedSegments().empty());

    flash.programFaultHook = [&](SegmentId, SlotId) {
        return true;
    };
    (void)flash.tryAppendPage(seg, LogicalPageId(1));
    flash.programFaultHook = nullptr;

    EXPECT_TRUE(flash.segmentSpecFailed(seg));
    const auto failed = flash.specFailedSegments();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], seg);
    EXPECT_EQ(metrics.snapshot().counter("flash.slots_retired"), 1u);
    EXPECT_EQ(metrics.snapshot().counter("flash.erase_spec_failures"),
              0u);

    // An erase that overruns its rated window spec-fails too: the
    // block stays usable, the status latch and the counter record it.
    FlashTiming slow_erase;
    slow_erase.maxEraseTime = slow_erase.eraseTime - 1;
    obs::MetricsRegistry worn_metrics;
    FlashArray worn(tinyGeom(), slow_erase, false, &worn_metrics);
    worn.eraseSegment(seg);
    EXPECT_TRUE(worn.segmentSpecFailed(seg));
    const obs::MetricsSnapshot worn_snap = worn_metrics.snapshot();
    EXPECT_EQ(worn_snap.counter("flash.erase_spec_failures"), 1u);
    EXPECT_EQ(worn_snap.counter("flash.erases"), 1u);
}

TEST(Faults, TransientEraseFailureRetriesAndIsCounted)
{
    obs::MetricsRegistry metrics;
    FlashArray flash(tinyGeom(), FlashTiming{}, false, &metrics);
    const SegmentId seg{2};
    const auto a = flash.appendPage(seg, LogicalPageId(9));
    flash.invalidatePage(a);

    int failures = 2;
    flash.eraseFaultHook = [&](SegmentId) { return failures-- > 0; };
    flash.eraseSegment(seg);
    flash.eraseFaultHook = nullptr;

    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("flash.erase_retries"), 2u);
    EXPECT_EQ(snap.counter("flash.erases"), 1u);
    EXPECT_EQ(snap.counter("flash.erase_spec_failures"), 0u);
    // Each attempt burns a real erase cycle.
    EXPECT_EQ(flash.eraseCycles(seg), 3u);
    EXPECT_EQ(flash.freeSlots(seg), flash.pagesPerSegment());
}

// ---- the controller's flush path ---------------------------------

TEST(Faults, FlushRetriesPastSpecFailureWithoutLosingData)
{
    EnvyStore store(tinyStore());

    FaultPlan plan;
    plan.failProgramOps = {2, 5}; // two flush programs spec-fail
    FaultInjector inj(plan);
    inj.arm();
    inj.attachFlash(store.flash());

    // Write enough distinct pages to push the buffer through many
    // flushes, crossing both failing program ordinals.
    const std::uint32_t page = store.config().geom.pageSize;
    for (std::uint64_t p = 0; p < 64; ++p)
        store.writeU64(p * page, 0xFEED0000ull + p);
    inj.disarm();

    EXPECT_EQ(inj.programFailuresInjected(), 2u);
    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    EXPECT_EQ(snap.counter("ctl.flush_retries"), 2u);
    EXPECT_EQ(snap.counter("flash.slots_retired"), 2u);
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(store.readU64(p * page), 0xFEED0000ull + p);

    const auto rep = InvariantChecker::check(store);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.retiredSlots, 2u);
}

// ---- power loss inside the wear-leveler's segment swap -----------

TEST(Faults, RecoveryFinishesAnInterruptedWearRotation)
{
    const char *points[] = {
        "wear.rotate.begin",
        "wear.rotate.after_first_move",
        "wear.rotate.after_first_erase",
        "wear.rotate.after_second_move",
        "wear.rotate.after_second_erase",
        "wear.rotate.after_commit",
    };
    for (const char *point : points) {
        EnvyConfig cfg = tinyStore();
        cfg.wearThreshold = 0; // rotate at the slightest imbalance
        EnvyStore store(cfg);
        std::vector<std::uint8_t> ref(store.size(), 0);
        Rng rng(23);

        FaultPlan plan;
        plan.crashPoint = point;
        FaultInjector inj(plan);
        inj.arm();

        bool crashed = false;
        for (int op = 0; op < 20000 && !crashed; ++op) {
            const std::uint64_t addr = rng.below(store.size() - 8);
            const std::uint64_t v = rng.next();
            std::uint8_t buf[8];
            for (int i = 0; i < 8; ++i) {
                buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
                ref[addr + i] = buf[i];
            }
            try {
                store.write(addr, buf);
            } catch (const PowerLoss &) {
                crashed = true;
            }
        }
        ASSERT_TRUE(crashed) << "no rotation reached " << point;
        inj.disarm();

        const RecoveryReport rep = store.powerFailAndRecover();
        EXPECT_TRUE(rep.wearResumed) << point;
        EXPECT_EQ(store.space().wearRecord().stage, 0u) << point;

        const auto inv = InvariantChecker::check(store);
        EXPECT_TRUE(inv.ok()) << point << ": " << inv.summary();

        std::vector<std::uint8_t> got(store.size());
        store.read(0, got);
        EXPECT_EQ(got, ref) << "data lost crashing at " << point;
    }
}

// ---- power loss inside a shadow-transaction commit ---------------

TEST(Faults, CrashDuringTxnCommitKeepsTheNewValues)
{
    EnvyStore store(tinyStore());
    ShadowManager txns(store);
    const std::uint32_t page = store.config().geom.pageSize;

    store.writeU64(0 * page, 1);
    store.writeU64(3 * page, 2);
    // Push both pages out of the write buffer: only flash copies are
    // pinned as shadows, and only those take the mid-release path.
    for (std::uint64_t p = 100; p < 120; ++p)
        store.writeU64(p * page, p);

    const auto id = txns.begin();
    std::uint8_t buf[8] = {0x11, 0, 0, 0, 0, 0, 0, 0};
    txns.write(id, 0 * page, buf);
    buf[0] = 0x22;
    txns.write(id, 3 * page, buf);

    // Commit releases the pinned shadows one by one; the power
    // failure lands between the two releases.
    FaultPlan plan;
    plan.crashPoint = "txn.commit.mid_release";
    FaultInjector inj(plan);
    inj.arm();
    EXPECT_THROW(txns.commit(id), PowerLoss);
    inj.disarm();
    txns.powerLost();

    store.powerFailAndRecover();

    // The page table made the writes durable long before commit();
    // the sweep only had leftover shadows to reclaim.
    EXPECT_EQ(store.readU64(0 * page), 0x11u);
    EXPECT_EQ(store.readU64(3 * page), 0x22u);

    InvariantChecker::Options opts;
    opts.expectNoShadows = true;
    const auto inv = InvariantChecker::check(store, opts);
    EXPECT_TRUE(inv.ok()) << inv.summary();

    // The store keeps working.
    store.writeU64(7 * page, 3);
    EXPECT_EQ(store.readU64(7 * page), 3u);
}

TEST(Faults, CrashDuringTxnAbortLeavesEachPagePreOrPost)
{
    EnvyStore store(tinyStore());
    ShadowManager txns(store);
    const std::uint32_t page = store.config().geom.pageSize;

    store.writeU64(1 * page, 100);
    store.writeU64(4 * page, 200);

    const auto id = txns.begin();
    std::uint8_t buf[8] = {0x33, 0, 0, 0, 0, 0, 0, 0};
    txns.write(id, 1 * page, buf);
    buf[0] = 0x44;
    txns.write(id, 4 * page, buf);

    FaultPlan plan;
    plan.crashPoint = "txn.abort.mid_restore";
    FaultInjector inj(plan);
    inj.arm();
    EXPECT_THROW(txns.abort(id), PowerLoss);
    inj.disarm();
    txns.powerLost();

    store.powerFailAndRecover();

    // Each touched page independently rolled back or kept the
    // transaction's value; no third state exists.
    const std::uint64_t a = store.readU64(1 * page);
    const std::uint64_t b = store.readU64(4 * page);
    EXPECT_TRUE(a == 100u || a == 0x33u) << a;
    EXPECT_TRUE(b == 200u || b == 0x44u) << b;

    InvariantChecker::Options opts;
    opts.expectNoShadows = true;
    const auto inv = InvariantChecker::check(store, opts);
    EXPECT_TRUE(inv.ok()) << inv.summary();
}

// ---- injector plumbing -------------------------------------------

TEST(Faults, InjectorIsDeterministicForAGivenPlan)
{
    auto runOnce = [](std::map<std::string, std::uint64_t> &hits,
                      std::uint64_t &program_failures) {
        EnvyStore store(tinyStore());
        FaultPlan plan;
        plan.seed = 77;
        plan.programFailureRate = 0.01;
        FaultInjector inj(plan);
        inj.arm();
        inj.attachFlash(store.flash());
        Rng rng(5);
        for (int op = 0; op < 2000; ++op) {
            store.writeU32(rng.below(store.size() - 4),
                           static_cast<std::uint32_t>(rng.next()));
        }
        inj.disarm();
        hits = inj.hitCounts();
        program_failures = inj.programFailuresInjected();
    };

    std::map<std::string, std::uint64_t> h1, h2;
    std::uint64_t f1 = 0, f2 = 0;
    runOnce(h1, f1);
    runOnce(h2, f2);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(f1, f2);
    EXPECT_FALSE(h1.empty());
}

TEST(Faults, DisarmRestoresThePreviousSink)
{
    FaultInjector outer(FaultPlan{});
    outer.arm();
    {
        FaultInjector inner(FaultPlan{});
        inner.arm();
        EXPECT_EQ(crash_points::currentSink(), &inner);
        inner.disarm();
    }
    EXPECT_EQ(crash_points::currentSink(), &outer);
    outer.disarm();
    EXPECT_EQ(crash_points::currentSink(), nullptr);
}

TEST(Faults, EveryCanonicalCrashPointIsRegisteredAtStartup)
{
    const auto points = crash_points::allPoints();
    EXPECT_GE(points.size(), 27u);
    const char *expect[] = {
        "ctl.cow.after_push", "ctl.flush.after_program_failure",
        "cleaner.relocate.done", "cleaner.clean.before_erase",
        "cleaner.shadow.after_program", "wear.rotate.after_first_move",
        "txn.commit.mid_release", "txn.abort.mid_restore",
    };
    for (const char *p : expect) {
        EXPECT_TRUE(std::find(points.begin(), points.end(), p) !=
                    points.end())
            << p << " is not registered";
    }
}

} // namespace
} // namespace envy

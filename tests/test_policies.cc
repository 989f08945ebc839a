/**
 * @file
 * Tests for the four cleaning policies of §4, including a
 * parameterized invariant fuzz: under any policy and any locality,
 * every flush destination has room, every logical page stays mapped,
 * and the total live count is conserved.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/units.hh"
#include "envy/cleaner.hh"
#include "envy/policy/fifo.hh"
#include "envy/policy/greedy.hh"
#include "envy/policy/hybrid.hh"
#include "envy/policy/locality_gathering.hh"
#include "workload/bimodal.hh"

namespace envy {
namespace {

/** A little rig: metadata-only flash, table, space, cleaner. */
struct Rig
{
    explicit Rig(const Geometry &g = Geometry::tiny())
        : flash(g, FlashTiming{}, false),
          sram(PageTable::bytesNeeded(g.physicalPages().value()) +
               SegmentSpace::bytesNeeded(g.numSegments()).value()),
          table(sram, 0, g.physicalPages().value()),
          mmu(table, 256),
          space(flash, sram,
                PageTable::bytesNeeded(g.physicalPages().value())),
          cleaner(space, mmu)
    {
    }

    /** Sequential initial population at the geometry's utilization
     *  (like a database load: low addresses land in low segments). */
    void
    populate()
    {
        const std::uint64_t pages =
            flash.geom().effectiveLogicalPages().value();
        const std::uint64_t share =
            (pages + space.numLogical() - 1) / space.numLogical();
        for (std::uint64_t p = 0; p < pages; ++p) {
            const auto seg = static_cast<std::uint32_t>(p / share);
            mmu.mapToFlash(LogicalPageId(p),
                           flash.appendPage(space.physOf(seg),
                                            LogicalPageId(p)));
        }
        populated = pages;
    }

    /** One §4-style write: COW + immediate flush via the policy. */
    void
    rewrite(CleaningPolicy &policy, std::uint64_t page)
    {
        const auto loc = mmu.lookup(LogicalPageId(page));
        ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
        const std::uint64_t origin =
            policy.originTag(space.logOf(loc.flash.segment));
        flash.invalidatePage(loc.flash);
        const std::uint32_t dest = policy.flushDestination(origin);
        ASSERT_LT(dest, space.numLogical());
        ASSERT_GT(space.freeSlots(dest), PageCount(0));
        mmu.mapToFlash(LogicalPageId(page),
                       flash.appendPage(space.physOf(dest),
                                        LogicalPageId(page)));
        space.noteFlush();
    }

    FlashArray flash;
    SramArray sram;
    PageTable table;
    Mmu mmu;
    SegmentSpace space;
    Cleaner cleaner;
    std::uint64_t populated = 0;
};

TEST(GreedyPolicy, PicksMostInvalidatedVictim)
{
    Rig rig;
    GreedyPolicy policy;
    policy.attach(rig.space, rig.cleaner);

    // Fill segments 0..2 completely; invalidate most of segment 1.
    const std::uint64_t cap = rig.flash.pagesPerSegment().value();
    std::uint64_t page = 0;
    for (std::uint32_t s = 0; s < 3; ++s)
        for (std::uint64_t i = 0; i < cap; ++i)
            rig.mmu.mapToFlash(
                LogicalPageId(page),
                rig.flash.appendPage(rig.space.physOf(s),
                                     LogicalPageId(page))),
                ++page;
    for (std::uint32_t i = 0; i < cap - 1; ++i) {
        rig.flash.invalidatePage({rig.space.physOf(1), SlotId(i)});
    }

    // Fill everything else so only cleaning can make room.
    for (std::uint32_t s = 3; s < rig.space.numLogical(); ++s)
        for (std::uint64_t i = 0; i < cap; ++i)
            rig.mmu.mapToFlash(
                LogicalPageId(page),
                rig.flash.appendPage(rig.space.physOf(s),
                                     LogicalPageId(page))),
                ++page;

    const std::uint64_t cleans0 = rig.cleaner.metSegmentsCleaned.value();
    const std::uint32_t dest = policy.flushDestination(0);
    EXPECT_EQ(dest, 1u); // the most-invalidated segment was cleaned
    EXPECT_EQ(rig.cleaner.metSegmentsCleaned.value(), cleans0 + 1);
    EXPECT_GT(rig.space.freeSlots(dest), PageCount(0));
}

TEST(GreedyPolicy, UsesFreeSegmentsBeforeCleaning)
{
    Rig rig;
    GreedyPolicy policy;
    policy.attach(rig.space, rig.cleaner);
    const std::uint32_t dest = policy.flushDestination(0);
    EXPECT_EQ(rig.cleaner.metSegmentsCleaned.value(), 0u);
    EXPECT_GT(rig.space.freeSlots(dest), PageCount(0));
}

TEST(FifoPolicy, CleansInRotation)
{
    Rig rig;
    FifoPolicy policy;
    policy.attach(rig.space, rig.cleaner);

    // Full array with some invalid everywhere.
    const std::uint64_t cap = rig.flash.pagesPerSegment().value();
    std::uint64_t page = 0;
    for (std::uint32_t s = 0; s < rig.space.numLogical(); ++s) {
        for (std::uint64_t i = 0; i < cap; ++i) {
            rig.mmu.mapToFlash(
                LogicalPageId(page),
                rig.flash.appendPage(rig.space.physOf(s),
                                     LogicalPageId(page)));
            ++page;
        }
        rig.flash.invalidatePage({rig.space.physOf(s), SlotId(0)});
    }

    // Each time the active segment fills, the next victim in order
    // is cleaned: 0, 1, 2, ...
    std::vector<std::uint32_t> victims;
    for (int round = 0; round < 3; ++round) {
        const std::uint64_t cleans0 = rig.cleaner.metSegmentsCleaned.value();
        std::uint32_t dest = policy.flushDestination(0);
        if (rig.cleaner.metSegmentsCleaned.value() > cleans0)
            victims.push_back(dest);
        // Exhaust the destination to force the next clean.
        while (rig.space.freeSlots(dest) > PageCount(0)) {
            rig.flash.appendPage(rig.space.physOf(dest),
                                 LogicalPageId(0));
            rig.flash.invalidatePage(
                {rig.space.physOf(dest),
                 SlotId(static_cast<std::uint32_t>(
                            rig.flash.usedSlots(rig.space.physOf(dest))
                                .value()) -
                        1)});
        }
    }
    (void)policy.flushDestination(0);
    EXPECT_GE(rig.cleaner.metSegmentsCleaned.value(), 3u);
}

TEST(LocalityGathering, FlushReturnsToOrigin)
{
    Rig rig;
    LocalityGatheringPolicy policy;
    policy.attach(rig.space, rig.cleaner);
    rig.populate();
    // Rewrites of pages with origin 3 go back to segment 3.
    EXPECT_EQ(policy.flushDestination(3), 3u);
    EXPECT_EQ(policy.flushDestination(7), 7u);
}

TEST(LocalityGathering, TargetsTrackWriteRates)
{
    Rig rig;
    LocalityGatheringPolicy policy;
    policy.attach(rig.space, rig.cleaner);
    rig.populate();

    // Hammer segment 0's pages; its live target must fall below a
    // cold segment's.
    BimodalWriteWorkload w(rig.populated, LocalitySpec{0.05, 0.95},
                           21);
    for (int i = 0; i < 200000; ++i)
        rig.rewrite(policy, w.nextPage().value());

    EXPECT_LT(policy.targetLive(0),
              policy.targetLive(rig.space.numLogical() - 1));
    EXPECT_GT(policy.writeShare(0),
              policy.writeShare(rig.space.numLogical() - 1));
}

TEST(LocalityGathering, TargetsConserveTotalLive)
{
    // The free-space allocator must hand out exactly the free space
    // that exists: summing the live targets over all segments gives
    // the total live page count (otherwise redistribution would
    // chase an unreachable allocation forever).
    Rig rig;
    LocalityGatheringPolicy policy;
    policy.attach(rig.space, rig.cleaner);
    rig.populate();

    BimodalWriteWorkload w(rig.populated, LocalitySpec{0.1, 0.9}, 8);
    for (int i = 0; i < 100000; ++i)
        rig.rewrite(policy, w.nextPage().value());

    double target_sum = 0.0, live_sum = 0.0;
    for (std::uint32_t s = 0; s < rig.space.numLogical(); ++s) {
        target_sum += policy.targetLive(s);
        live_sum += asDouble(rig.space.liveCount(s));
    }
    // Clamping of extreme hot segments can leave a little slack.
    EXPECT_NEAR(target_sum, live_sum, live_sum * 0.02);
}

TEST(Hybrid, PartitionGeometry)
{
    Rig rig;
    HybridPolicy policy(4);
    policy.attach(rig.space, rig.cleaner);
    // tiny(): 15 logical segments -> 4 partitions of 4,4,4,3.
    EXPECT_EQ(policy.numPartitions(), 4u);
    EXPECT_EQ(policy.partitionOf(0), 0u);
    EXPECT_EQ(policy.partitionOf(3), 0u);
    EXPECT_EQ(policy.partitionOf(4), 1u);
    EXPECT_EQ(policy.partitionOf(14), 3u);
}

TEST(Hybrid, OversizedPartitionClampsToOnePartition)
{
    Rig rig;
    HybridPolicy policy(1000);
    policy.attach(rig.space, rig.cleaner);
    EXPECT_EQ(policy.numPartitions(), 1u);
}

TEST(Hybrid, FlushStaysInOriginPartition)
{
    Rig rig;
    HybridPolicy policy(4);
    policy.attach(rig.space, rig.cleaner);
    rig.populate();
    const std::uint32_t dest = policy.flushDestination(6);
    EXPECT_EQ(policy.partitionOf(dest), policy.partitionOf(6));
}

TEST(PolicyFactory, MakesAllKinds)
{
    EXPECT_STREQ(makePolicy(PolicyKind::Greedy, 0)->name(), "greedy");
    EXPECT_STREQ(makePolicy(PolicyKind::Fifo, 0)->name(), "fifo");
    EXPECT_STREQ(makePolicy(PolicyKind::LocalityGathering, 0)->name(),
                 "locality-gathering");
    EXPECT_STREQ(makePolicy(PolicyKind::Hybrid, 16)->name(), "hybrid");
    EXPECT_STREQ(policyKindName(PolicyKind::Hybrid), "hybrid");
}

// ---- parameterized invariant fuzz --------------------------------

struct FuzzParam
{
    PolicyKind kind;
    const char *locality;
};

// Print the policy and locality, not the struct's bytes: those include
// the locality pointer, which would make the discovered test names
// differ per build.
void
PrintTo(const FuzzParam &p, std::ostream *os)
{
    *os << policyKindName(p.kind) << " " << p.locality;
}

std::vector<FuzzParam>
fuzzParams()
{
    std::vector<FuzzParam> params;
    for (const PolicyKind kind :
         {PolicyKind::Greedy, PolicyKind::Fifo,
          PolicyKind::LocalityGathering, PolicyKind::Hybrid})
        for (const char *locality : {"50/50", "20/80", "5/95"})
            params.push_back({kind, locality});
    return params;
}

class PolicyFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(PolicyFuzz, InvariantsHoldUnderChurn)
{
    const auto [kind, locality] = GetParam();
    Rig rig;
    auto policy = makePolicy(kind, 4);
    policy->attach(rig.space, rig.cleaner);
    rig.populate();

    BimodalWriteWorkload w(rig.populated,
                           LocalitySpec::parse(locality), 5);
    const std::uint64_t writes = 4 * rig.populated;
    for (std::uint64_t i = 0; i < writes; ++i)
        rig.rewrite(*policy, w.nextPage().value());

    // 1. Conservation: exactly one live copy per logical page.
    EXPECT_EQ(rig.flash.totalLive().value(), rig.populated);

    // 2. The reserve is always erased and ready.
    EXPECT_EQ(rig.flash.usedSlots(rig.space.reserve()),
              PageCount(0));

    // 3. Every page's mapping points at a live slot that names it.
    for (std::uint64_t p = 0; p < rig.populated; p += 37) {
        const auto loc = rig.table.lookup(LogicalPageId(p));
        ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
        EXPECT_EQ(rig.flash.pageOwner(loc.flash), LogicalPageId(p));
    }

    // 4. Cleaning cost is sane (bounded by the worst possible).
    const double cost = rig.cleaner.cleaningCost();
    EXPECT_GE(cost, 0.0);
    EXPECT_LT(cost, 40.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndLocalities, PolicyFuzz,
    ::testing::ValuesIn(fuzzParams()),
    [](const auto &param_info) {
        std::string name = policyKindName(param_info.param.kind);
        std::string loc = param_info.param.locality;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        for (auto &c : loc)
            if (c == '/')
                c = '_';
        return name + "_" + loc;
    });

} // namespace
} // namespace envy

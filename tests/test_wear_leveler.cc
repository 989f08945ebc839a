/**
 * @file
 * Tests for wear leveling (§4.3): when the erase-cycle spread between
 * the oldest and youngest segments exceeds the threshold (100 in the
 * paper), their data is rotated through the reserve.
 */

#include <gtest/gtest.h>

#include "envy/cleaner.hh"
#include "envy/envy_store.hh"
#include "envy/wear_leveler.hh"
#include "sim/random.hh"

namespace envy {
namespace {

TEST(WearLeveler, NoRotationBelowThreshold)
{
    FlashArray flash(Geometry::tiny(), FlashTiming{}, false);
    SramArray sram(
        PageTable::bytesNeeded(flash.geom().physicalPages().value()) +
        SegmentSpace::bytesNeeded(flash.numSegments()).value());
    PageTable table(sram, 0, flash.geom().physicalPages().value());
    Mmu mmu(table, 64);
    SegmentSpace space(
        flash, sram,
        PageTable::bytesNeeded(
            flash.geom().physicalPages().value()));
    WearLeveler wear(10);
    Cleaner cleaner(space, mmu, &wear);

    EXPECT_EQ(wear.spread(space), 0u);
    EXPECT_FALSE(wear.maybeRotate(space, cleaner));
}

TEST(WearLeveler, RotatesWhenSpreadExceedsThreshold)
{
    FlashArray flash(Geometry::tiny(), FlashTiming{}, false);
    SramArray sram(
        PageTable::bytesNeeded(flash.geom().physicalPages().value()) +
        SegmentSpace::bytesNeeded(flash.numSegments()).value());
    PageTable table(sram, 0, flash.geom().physicalPages().value());
    Mmu mmu(table, 64);
    SegmentSpace space(
        flash, sram,
        PageTable::bytesNeeded(
            flash.geom().physicalPages().value()));
    WearLeveler wear(5);
    Cleaner cleaner(space, mmu, &wear);

    // Put a page into segment 0 (the "hot" data) and age its
    // physical segment far past the threshold.
    const FlashPageAddr a =
        flash.appendPage(space.physOf(0), LogicalPageId(42));
    mmu.mapToFlash(LogicalPageId(42), a);
    // Put data in the youngest-candidate segment too.
    const FlashPageAddr b =
        flash.appendPage(space.physOf(5), LogicalPageId(43));
    mmu.mapToFlash(LogicalPageId(43), b);

    const SegmentId worn = space.physOf(0);
    for (int i = 0; i < 7; ++i) {
        // Age by erase/refill cycles.
        flash.invalidatePage(
            {worn, SlotId(static_cast<std::uint32_t>(
                              flash.usedSlots(worn).value() - 1))});
        flash.eraseSegment(worn);
        flash.appendPage(worn, LogicalPageId(42));
    }
    mmu.mapToFlash(LogicalPageId(42), {worn, SlotId(0)});
    EXPECT_GT(wear.spread(space), 5u);

    EXPECT_TRUE(wear.maybeRotate(space, cleaner));
    EXPECT_EQ(wear.metRotations.value(), 1u);

    // Logical segment 0 no longer lives on the worn segment.
    EXPECT_NE(space.physOf(0), worn);
    // Data still reachable.
    const auto loc42 = table.lookup(LogicalPageId(42));
    ASSERT_EQ(loc42.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(flash.pageOwner(loc42.flash), LogicalPageId(42));
    const auto loc43 = table.lookup(LogicalPageId(43));
    EXPECT_EQ(flash.pageOwner(loc43.flash), LogicalPageId(43));
    // Spread reduced or at least bounded; rotation happened through
    // the reserve, which must be erased again.
    EXPECT_EQ(flash.usedSlots(space.reserve()), PageCount(0));
}

TEST(WearLeveler, EndToEndSpreadStaysBounded)
{
    // Hammer a tiny hot set through the full store with a tight
    // wear threshold; the spread must stay in the same ballpark as
    // the threshold instead of growing with the write count.
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 16;
    cfg.storeData = false;
    cfg.policy = PolicyKind::LocalityGathering;
    // Sequential placement puts the whole hot set in segment 0, the
    // worst case for wear.
    cfg.placement = Controller::Placement::Sequential;
    cfg.wearThreshold = 6;
    EnvyStore store(cfg);

    const std::uint32_t ps = cfg.geom.pageSize;
    Rng rng(5);
    for (int i = 0; i < 300000; ++i) {
        // 95% of writes to 16 pages.
        const std::uint64_t page =
            rng.chance(0.95) ? rng.below(16)
                             : rng.below(store.size() / ps);
        std::uint8_t b = 0;
        store.controller().write(page * ps, {&b, 1});
    }

    EXPECT_GT(store.wearLeveler().metRotations.value(), 0u);
    EXPECT_LT(store.wearLeveler().spread(store.space()),
              3 * cfg.wearThreshold + 4);
}

} // namespace
} // namespace envy

/**
 * @file
 * Tests for the FlashArray page/segment bookkeeping that the whole
 * copy-on-write and cleaning machinery rests on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "flash/flash_array.hh"

namespace envy {
namespace {

Geometry
tinyGeom()
{
    Geometry g = Geometry::tiny(); // 16 segments, 2048 pages each
    return g;
}

class FlashArrayTest : public ::testing::Test
{
  protected:
    FlashArrayTest() : array(tinyGeom(), FlashTiming{}, true) {}

    std::vector<std::uint8_t>
    pattern(std::uint8_t seed)
    {
        std::vector<std::uint8_t> v(array.geom().pageSize);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint8_t>(seed + i);
        return v;
    }

    FlashArray array;
};

TEST_F(FlashArrayTest, FreshSegmentsAreEmpty)
{
    for (std::uint32_t s = 0; s < array.numSegments(); ++s) {
        const SegmentId seg{s};
        EXPECT_EQ(array.liveCount(seg), PageCount(0));
        EXPECT_EQ(array.invalidCount(seg), PageCount(0));
        EXPECT_EQ(array.freeSlots(seg), array.pagesPerSegment());
        EXPECT_EQ(array.eraseCycles(seg), 0u);
    }
    EXPECT_EQ(array.totalLive(), PageCount(0));
}

TEST_F(FlashArrayTest, AppendAssignsSequentialSlots)
{
    const SegmentId seg{3};
    for (std::uint32_t i = 0; i < 5; ++i) {
        const FlashPageAddr a =
            array.appendPage(seg, LogicalPageId(100 + i),
                             pattern(static_cast<std::uint8_t>(i)));
        EXPECT_EQ(a.segment, seg);
        EXPECT_EQ(a.slot, SlotId(i));
    }
    EXPECT_EQ(array.liveCount(seg), PageCount(5));
    EXPECT_EQ(array.usedSlots(seg), PageCount(5));
    EXPECT_EQ(array.freeSlots(seg), array.pagesPerSegment() - PageCount(5));
}

TEST_F(FlashArrayTest, DataRoundTrip)
{
    const SegmentId seg{0};
    const auto in = pattern(42);
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(7), in);
    std::vector<std::uint8_t> out(array.geom().pageSize);
    array.readPage(a, out);
    EXPECT_EQ(out, in);
}

TEST_F(FlashArrayTest, OwnerTracking)
{
    const SegmentId seg{1};
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(55), pattern(1));
    EXPECT_EQ(array.pageOwner(a), LogicalPageId(55));
    EXPECT_TRUE(array.pageLive(a));

    array.invalidatePage(a);
    EXPECT_FALSE(array.pageLive(a));
    EXPECT_FALSE(array.pageOwner(a).valid());
    EXPECT_EQ(array.liveCount(seg), PageCount(0));
    EXPECT_EQ(array.invalidCount(seg), PageCount(1));
    // Dead slots are not writable: used count stays.
    EXPECT_EQ(array.usedSlots(seg), PageCount(1));
}

TEST_F(FlashArrayTest, UtilizationIsLiveOverCapacity)
{
    const SegmentId seg{2};
    const std::uint64_t cap = array.pagesPerSegment().value();
    for (std::uint64_t i = 0; i < cap / 2; ++i)
        array.appendPage(seg, LogicalPageId(i), pattern(0));
    EXPECT_DOUBLE_EQ(array.utilization(seg), 0.5);
}

TEST_F(FlashArrayTest, ForEachLiveSkipsDeadAndPreservesOrder)
{
    const SegmentId seg{4};
    std::vector<FlashPageAddr> addrs;
    for (std::uint32_t i = 0; i < 6; ++i)
        addrs.push_back(
            array.appendPage(seg, LogicalPageId(i), pattern(0)));
    array.invalidatePage(addrs[1]);
    array.invalidatePage(addrs[4]);

    std::vector<std::uint64_t> seen;
    array.forEachLive(seg, [&](SlotId slot, LogicalPageId p) {
        seen.push_back(p.value());
        EXPECT_EQ(slot.value(), p.value()); // slot == logical here
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 2, 3, 5}));
}

TEST_F(FlashArrayTest, EraseRecyclesSegment)
{
    const SegmentId seg{5};
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(9), pattern(9));
    array.invalidatePage(a);
    array.eraseSegment(seg);
    EXPECT_EQ(array.usedSlots(seg), PageCount(0));
    EXPECT_EQ(array.freeSlots(seg), array.pagesPerSegment());
    EXPECT_EQ(array.eraseCycles(seg), 1u);
    // Slots are writable again.
    const FlashPageAddr b =
        array.appendPage(seg, LogicalPageId(10), pattern(1));
    EXPECT_EQ(b.slot, SlotId(0));
}

TEST_F(FlashArrayTest, StatsCount)
{
    const SegmentId seg{6};
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(1), pattern(0));
    array.invalidatePage(a);
    array.eraseSegment(seg);
    EXPECT_EQ(array.metPrograms.value(), 1u);
    EXPECT_EQ(array.metInvalidations.value(), 1u);
    EXPECT_EQ(array.metErases.value(), 1u);
}

TEST_F(FlashArrayTest, ShadowLifecycle)
{
    const SegmentId seg{7};
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(3), pattern(3));
    array.convertToShadow(a);
    EXPECT_TRUE(array.pageIsShadow(a));
    EXPECT_FALSE(array.pageOwner(a).valid());
    // Shadows count live: they occupy space the cleaner must carry.
    EXPECT_EQ(array.liveCount(seg), PageCount(1));

    int shadows = 0;
    array.forEachShadow(seg, [&](SlotId) { ++shadows; });
    EXPECT_EQ(shadows, 1);
    // forEachLive must skip them.
    array.forEachLive(seg, [&](SlotId, LogicalPageId) {
        FAIL() << "shadow visited as live";
    });

    array.invalidatePage(a);
    EXPECT_FALSE(array.pageIsShadow(a));
    EXPECT_EQ(array.liveCount(seg), PageCount(0));
}

TEST_F(FlashArrayTest, AppendShadowDirectly)
{
    const SegmentId seg{8};
    const auto data = pattern(77);
    const FlashPageAddr a = array.appendShadow(seg, data);
    EXPECT_TRUE(array.pageIsShadow(a));
    std::vector<std::uint8_t> out(array.geom().pageSize);
    array.readPage(a, out);
    EXPECT_EQ(out, data);
}

TEST(FlashArrayMetadataOnly, WorksWithoutData)
{
    FlashArray array(Geometry::tiny(), FlashTiming{}, false);
    const SegmentId seg{0};
    const FlashPageAddr a = array.appendPage(seg, LogicalPageId(1));
    EXPECT_TRUE(array.pageLive(a));
    array.invalidatePage(a);
    array.eraseSegment(seg);
    EXPECT_EQ(array.eraseCycles(seg), 1u);
}

using FlashArrayDeathTest = FlashArrayTest;

TEST_F(FlashArrayDeathTest, ErasingLiveDataPanics)
{
    const SegmentId seg{0};
    array.appendPage(seg, LogicalPageId(1), pattern(0));
    EXPECT_DEATH(array.eraseSegment(seg), "live");
}

TEST_F(FlashArrayDeathTest, DoubleInvalidatePanics)
{
    const SegmentId seg{0};
    const FlashPageAddr a =
        array.appendPage(seg, LogicalPageId(1), pattern(0));
    array.invalidatePage(a);
    EXPECT_DEATH(array.invalidatePage(a), "double invalidate");
}

TEST_F(FlashArrayDeathTest, AppendToFullSegmentPanics)
{
    Geometry g = Geometry::tiny();
    FlashArray small(g, FlashTiming{}, false);
    const SegmentId seg{0};
    for (std::uint64_t i = 0; i < g.pagesPerSegment().value(); ++i)
        small.appendPage(seg, LogicalPageId(i));
    EXPECT_DEATH(small.appendPage(seg, LogicalPageId(0)), "full");
}

} // namespace
} // namespace envy

/**
 * @file
 * Tests for the 6-byte-entry page table (§3.3).
 */

#include <ostream>

#include <gtest/gtest.h>

#include "envy/page_table.hh"

namespace envy {
namespace {

class PageTableTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t entries = 1000;

    PageTableTest()
        : sram(PageTable::bytesNeeded(entries) + 64),
          table(sram, 64, entries)
    {
    }

    SramArray sram;
    PageTable table;
};

TEST_F(PageTableTest, StartsUnmapped)
{
    for (std::uint64_t p = 0; p < entries; p += 97) {
        const auto loc = table.lookup(LogicalPageId(p));
        EXPECT_EQ(loc.kind, PageTable::LocKind::Unmapped);
        EXPECT_FALSE(loc.mapped());
    }
    EXPECT_EQ(table.countMapped(), 0u);
}

TEST_F(PageTableTest, FlashMappingRoundTrip)
{
    const FlashPageAddr addr{SegmentId(113), SlotId(0xDEADBEu)};
    table.mapToFlash(LogicalPageId(5), addr);
    const auto loc = table.lookup(LogicalPageId(5));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(loc.flash, addr);
}

TEST_F(PageTableTest, SramMappingRoundTrip)
{
    table.mapToSram(LogicalPageId(6), BufferSlotId(0xFEEDu));
    const auto loc = table.lookup(LogicalPageId(6));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Sram);
    EXPECT_EQ(loc.sramSlot.value(), 0xFEEDu);
}

TEST_F(PageTableTest, RemapOverwrites)
{
    table.mapToFlash(LogicalPageId(7), {SegmentId(1), SlotId(2)});
    table.mapToSram(LogicalPageId(7), BufferSlotId(3));
    EXPECT_EQ(table.lookup(LogicalPageId(7)).kind,
              PageTable::LocKind::Sram);
    table.mapToFlash(LogicalPageId(7), {SegmentId(4), SlotId(5)});
    const auto loc = table.lookup(LogicalPageId(7));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(loc.flash.segment.value(), 4u);
    EXPECT_EQ(loc.flash.slot.value(), 5u);
}

TEST_F(PageTableTest, UnmapRestoresUnmapped)
{
    table.mapToSram(LogicalPageId(8), BufferSlotId(1));
    table.unmap(LogicalPageId(8));
    EXPECT_FALSE(table.lookup(LogicalPageId(8)).mapped());
}

TEST_F(PageTableTest, CountMapped)
{
    table.mapToSram(LogicalPageId(1), BufferSlotId(1));
    table.mapToFlash(LogicalPageId(2), {SegmentId(0), SlotId(0)});
    table.mapToSram(LogicalPageId(3), BufferSlotId(2));
    table.unmap(LogicalPageId(3));
    EXPECT_EQ(table.countMapped(), 2u);
}

TEST_F(PageTableTest, EntriesAreExactlySixBytes)
{
    EXPECT_EQ(PageTable::bytesNeeded(entries), entries * 6);
    // Mapping entry k must only touch bytes [64 + 6k, 64 + 6k + 6).
    const std::uint8_t before = sram.readByte(64 + 6 * 10 - 1);
    table.mapToFlash(LogicalPageId(10), {SegmentId(3), SlotId(9)});
    EXPECT_EQ(sram.readByte(64 + 6 * 10 - 1), before);
    EXPECT_EQ(table.lookup(LogicalPageId(9)).kind,
              PageTable::LocKind::Unmapped);
    EXPECT_EQ(table.lookup(LogicalPageId(11)).kind,
              PageTable::LocKind::Unmapped);
}

struct PackCase
{
    std::uint64_t segment;
    std::uint32_t slot;
};

// Print the fields, not the struct's bytes: those include 4 padding
// bytes, which would make the discovered test names differ per build.
void
PrintTo(const PackCase &c, std::ostream *os)
{
    *os << std::hex << std::showbase << "{" << c.segment << ", " << c.slot
        << "}";
}

class PageTablePackTest : public ::testing::TestWithParam<PackCase>
{
};

TEST_P(PageTablePackTest, FlashEncodingIsLossless)
{
    SramArray sram(PageTable::bytesNeeded(4));
    PageTable table(sram, 0, 4);
    const auto &c = GetParam();
    const FlashPageAddr addr{SegmentId(c.segment), SlotId(c.slot)};
    table.mapToFlash(LogicalPageId(0), addr);
    const auto loc = table.lookup(LogicalPageId(0));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(loc.flash.segment.value(), c.segment);
    EXPECT_EQ(loc.flash.slot.value(), c.slot);
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, PageTablePackTest,
    ::testing::Values(PackCase{0, 0}, PackCase{0, 0xFFFFFFFF},
                      PackCase{0x7FFE, 0}, PackCase{0x7FFE, 0xFFFFFFFF},
                      PackCase{127, 65535}, PackCase{1, 1}));

TEST(PageTableDeathTest, OutOfRangePagePanics)
{
    SramArray sram(PageTable::bytesNeeded(4));
    PageTable table(sram, 0, 4);
    EXPECT_DEATH(table.lookup(LogicalPageId(4)), "out of range");
    EXPECT_DEATH(table.mapToSram(LogicalPageId(99), BufferSlotId(0)),
                 "out of range");
}

TEST(PageTableDeathTest, OversizedSegmentPanics)
{
    SramArray sram(PageTable::bytesNeeded(4));
    PageTable table(sram, 0, 4);
    EXPECT_DEATH(
        table.mapToFlash(LogicalPageId(0),
                         {SegmentId(0x8000), SlotId(0)}),
        "6-byte");
}

} // namespace
} // namespace envy

/**
 * @file
 * Tests for the MMU mapping cache (§5.1).
 */

#include <gtest/gtest.h>

#include "envy/mmu.hh"

namespace envy {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
        : sram(PageTable::bytesNeeded(4096)),
          table(sram, 0, 4096),
          mmu(table, 16)
    {
    }

    SramArray sram;
    PageTable table;
    Mmu mmu;
};

/** Look @p page up and report whether it missed the TLB. */
bool
missed(Mmu &mmu, LogicalPageId page)
{
    bool miss = false;
    mmu.lookup(page, &miss);
    return miss;
}

TEST_F(MmuTest, MissThenHit)
{
    table.mapToSram(LogicalPageId(1), BufferSlotId(7));
    bool miss = false;
    EXPECT_EQ(mmu.lookup(LogicalPageId(1), &miss).sramSlot.value(), 7u);
    EXPECT_TRUE(miss);

    miss = false;
    EXPECT_EQ(mmu.lookup(LogicalPageId(1), &miss).sramSlot.value(), 7u);
    EXPECT_FALSE(miss);
}

TEST_F(MmuTest, WriteThroughUpdatesBothTlbAndTable)
{
    mmu.mapToFlash(LogicalPageId(2), {SegmentId(3), SlotId(4)});
    // Table sees it...
    EXPECT_EQ(table.lookup(LogicalPageId(2)).kind,
              PageTable::LocKind::Flash);
    // ...and the TLB serves it without a miss.
    bool miss = false;
    const auto loc = mmu.lookup(LogicalPageId(2), &miss);
    EXPECT_EQ(loc.flash.slot.value(), 4u);
    EXPECT_FALSE(miss);
}

TEST_F(MmuTest, DirectMappedConflictEvicts)
{
    // Pages 5 and 5+16 collide in a 16-entry direct-mapped TLB.
    table.mapToSram(LogicalPageId(5), BufferSlotId(1));
    table.mapToSram(LogicalPageId(21), BufferSlotId(2));
    EXPECT_TRUE(missed(mmu, LogicalPageId(5)));
    EXPECT_TRUE(missed(mmu, LogicalPageId(21)));
    EXPECT_TRUE(missed(mmu, LogicalPageId(5)));
}

TEST_F(MmuTest, FlushTlbForcesWalks)
{
    table.mapToSram(LogicalPageId(3), BufferSlotId(9));
    EXPECT_TRUE(missed(mmu, LogicalPageId(3)));
    mmu.flushTlb();
    EXPECT_TRUE(missed(mmu, LogicalPageId(3)));
}

TEST_F(MmuTest, StaleTlbNeverSurvivesWriteThrough)
{
    table.mapToSram(LogicalPageId(6), BufferSlotId(1));
    mmu.lookup(LogicalPageId(6)); // cached as SRAM slot 1
    mmu.mapToFlash(LogicalPageId(6), {SegmentId(2), SlotId(8)});
    const auto loc = mmu.lookup(LogicalPageId(6));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(loc.flash.slot.value(), 8u);
}

TEST_F(MmuTest, UnmappedLookupsWork)
{
    EXPECT_EQ(mmu.lookup(LogicalPageId(100)).kind,
              PageTable::LocKind::Unmapped);
}

TEST(MmuDeathTest, NonPowerOfTwoTlbPanics)
{
    SramArray sram(PageTable::bytesNeeded(16));
    PageTable table(sram, 0, 16);
    EXPECT_DEATH(Mmu(table, 15), "power of two");
}

} // namespace
} // namespace envy

/**
 * @file
 * Tests for battery-backed SRAM and the FIFO write buffer (§3.2).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sram/sram_array.hh"
#include "sram/write_buffer.hh"

namespace envy {
namespace {

TEST(SramArray, ByteAndBlockAccess)
{
    SramArray sram(1024);
    sram.writeByte(10, 0xAB);
    EXPECT_EQ(sram.readByte(10), 0xAB);

    std::vector<std::uint8_t> in{1, 2, 3, 4};
    sram.write(100, in);
    std::vector<std::uint8_t> out(4);
    sram.read(100, out);
    EXPECT_EQ(out, in);
}

TEST(SramArray, UintHelpersAreLittleEndian)
{
    SramArray sram(64);
    sram.writeUint(0, 0x123456789ABCull, 6);
    EXPECT_EQ(sram.readUint(0, 6), 0x123456789ABCull);
    EXPECT_EQ(sram.readByte(0), 0xBC); // little end first
    EXPECT_EQ(sram.readByte(5), 0x12);
}

TEST(SramArray, BatteryBackedSurvivesPowerFail)
{
    SramArray sram(64, true);
    sram.writeUint(0, 0xDEAD, 4);
    sram.powerFail();
    EXPECT_EQ(sram.readUint(0, 4), 0xDEADull);
}

TEST(SramArray, UnbackedLosesContents)
{
    SramArray sram(64, false);
    sram.writeUint(0, 0xDEAD, 4);
    sram.writeUint(8, 0xDEAD, 4);
    sram.powerFail();
    // Deterministic garbage, but certainly not both words intact.
    EXPECT_FALSE(sram.readUint(0, 4) == 0xDEAD &&
                 sram.readUint(8, 4) == 0xDEAD);
}

class WriteBufferTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t cap = 8;
    static constexpr std::uint32_t pageSize = 32;

    WriteBufferTest()
        : sram(WriteBuffer::bytesNeeded(cap, pageSize, true)),
          buf(sram, 0, cap, pageSize, true, 6)
    {
    }

    SramArray sram;
    WriteBuffer buf;
};

TEST_F(WriteBufferTest, StartsEmpty)
{
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.full());
    EXPECT_FALSE(buf.aboveThreshold());
    EXPECT_EQ(buf.capacity(), cap);
}

TEST_F(WriteBufferTest, PushPopIsFifo)
{
    for (std::uint32_t i = 0; i < 5; ++i)
        buf.push(LogicalPageId(100 + i), i);
    EXPECT_EQ(buf.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        const auto t = buf.tail();
        EXPECT_EQ(t.logical, LogicalPageId(100 + i));
        EXPECT_EQ(t.origin, i);
        buf.popTail();
    }
    EXPECT_TRUE(buf.empty());
}

TEST_F(WriteBufferTest, SlotsStayStableWhileResident)
{
    const BufferSlotId s0 = buf.push(LogicalPageId(1), 0);
    buf.push(LogicalPageId(2), 0);
    EXPECT_EQ(buf.slotOwner(s0), LogicalPageId(1));
    buf.popTail(); // drops page 1
    EXPECT_FALSE(buf.slotResident(s0));
}

TEST_F(WriteBufferTest, RingWrapsAround)
{
    // Fill and drain twice the capacity to force wrapping.
    std::uint32_t pushed = 0, popped = 0;
    for (int round = 0; round < 4; ++round) {
        while (!buf.full())
            buf.push(LogicalPageId(pushed++), 7);
        while (!buf.empty()) {
            EXPECT_EQ(buf.tail().logical, LogicalPageId(popped++));
            buf.popTail();
        }
    }
    EXPECT_EQ(pushed, popped);
    EXPECT_EQ(pushed, 4 * cap);
}

TEST_F(WriteBufferTest, ThresholdSignalsBackgroundFlush)
{
    for (std::uint32_t i = 0; i < 5; ++i)
        buf.push(LogicalPageId(i), 0);
    EXPECT_FALSE(buf.aboveThreshold()); // threshold is 6
    buf.push(LogicalPageId(5), 0);
    EXPECT_TRUE(buf.aboveThreshold());
}

TEST_F(WriteBufferTest, SlotDataIsWritable)
{
    const BufferSlotId slot = buf.push(LogicalPageId(3), 0);
    auto data = buf.slotData(slot);
    ASSERT_EQ(data.size(), pageSize);
    data[0] = 0x5A;
    data[pageSize - 1] = 0xA5;
    EXPECT_EQ(buf.slotData(slot)[0], 0x5A);
    EXPECT_EQ(buf.slotData(slot)[pageSize - 1], 0xA5);
}

TEST_F(WriteBufferTest, MetadataLivesInSramAndRecovers)
{
    buf.push(LogicalPageId(11), 3);
    buf.push(LogicalPageId(22), 4);

    // Simulate the controller restarting: a new WriteBuffer object
    // would clobber SRAM, so recovery uses recover() on a mirror
    // whose in-core fields are stale.
    buf.recover();
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.tail().logical, LogicalPageId(11));
    EXPECT_EQ(buf.tail().origin, 3u);
}

TEST_F(WriteBufferTest, ResetEmptiesEverything)
{
    buf.push(LogicalPageId(1), 0);
    buf.push(LogicalPageId(2), 0);
    buf.reset();
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.slotResident(BufferSlotId(0)));
    EXPECT_FALSE(buf.slotResident(BufferSlotId(1)));
}

TEST_F(WriteBufferTest, StatsCountInsertsAndFlushes)
{
    buf.push(LogicalPageId(1), 0);
    buf.push(LogicalPageId(2), 0);
    buf.popTail();
    EXPECT_EQ(buf.metInserts.value(), 2u);
    EXPECT_EQ(buf.metFlushes.value(), 1u);
}

TEST_F(WriteBufferTest, LockFreeReadersSeeOnlyLegalStates)
{
    // One writer pushes pages 0, 1, 2, ... and pops the tail to keep
    // occupancy moving; page n always lands in ring slot n % cap.  A
    // reader polling size() and slotOwner() without the buffer's lock
    // may see any moment of that history, but never a state outside
    // it: an occupancy beyond capacity, a page in the wrong slot, a
    // page not yet pushed, or a slot's owner going backwards.
    constexpr std::uint32_t pages = 20000;
    std::atomic<std::uint32_t> pushed{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> illegal{false};

    std::thread reader([&] {
        std::vector<std::uint32_t> last(cap, 0);
        while (!stop.load()) {
            if (buf.size() > cap)
                illegal = true;
            for (std::uint32_t s = 0; s < cap; ++s) {
                const LogicalPageId owner = buf.slotOwner(BufferSlotId(s));
                if (!owner.valid())
                    continue;
                const auto page = static_cast<std::uint32_t>(owner.value());
                if (page % cap != s || page >= pushed.load() ||
                    page < last[s])
                    illegal = true;
                last[s] = page;
            }
        }
    });

    for (std::uint32_t n = 0; n < pages; ++n) {
        if (buf.full() || buf.size() > (n % cap))
            buf.popTail();
        pushed.store(n + 1);
        buf.push(LogicalPageId(n), 0);
    }
    stop = true;
    reader.join();
    EXPECT_FALSE(illegal.load());
}

TEST(WriteBufferDeathTest, PushWhenFullPanics)
{
    SramArray sram(WriteBuffer::bytesNeeded(2, 16, false));
    WriteBuffer buf(sram, 0, 2, 16, false);
    buf.push(LogicalPageId(0), 0);
    buf.push(LogicalPageId(1), 0);
    EXPECT_DEATH(buf.push(LogicalPageId(2), 0), "full");
}

TEST(WriteBufferDeathTest, TailOfEmptyPanics)
{
    SramArray sram(WriteBuffer::bytesNeeded(2, 16, false));
    WriteBuffer buf(sram, 0, 2, 16, false);
    EXPECT_DEATH(buf.tail(), "empty");
}

} // namespace
} // namespace envy

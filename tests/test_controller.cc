/**
 * @file
 * Tests for the controller's host interface: copy-on-write, buffer
 * hits, foreground stalls and the populate placements.
 */

#include <gtest/gtest.h>

#include <vector>

#include "envy/envy_store.hh"

namespace envy {
namespace {

EnvyConfig
smallConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 16; // small, to exercise flushing
    cfg.storeData = true;
    cfg.policy = PolicyKind::Hybrid;
    cfg.partitionSize = 4;
    return cfg;
}

TEST(Controller, FirstWriteIsCowSecondIsBufferHit)
{
    EnvyStore store(smallConfig());
    Controller &ctl = store.controller();

    const std::uint8_t v1[4] = {1, 2, 3, 4};
    const auto out1 = ctl.write(4096, v1);
    EXPECT_TRUE(out1.cow);
    EXPECT_FALSE(out1.hitSram);

    const std::uint8_t v2[4] = {5, 6, 7, 8};
    const auto out2 = ctl.write(4100, v2);
    EXPECT_FALSE(out2.cow);
    EXPECT_TRUE(out2.hitSram);

    EXPECT_EQ(ctl.metCows.value(), 1u);
    EXPECT_EQ(ctl.metBufferHits.value(), 1u);
}

TEST(Controller, CowInvalidatesOldFlashCopy)
{
    EnvyStore store(smallConfig());
    Controller &ctl = store.controller();
    const auto before = store.flash().metInvalidations.value();
    const std::uint8_t v[1] = {9};
    ctl.write(0, v);
    EXPECT_EQ(store.flash().metInvalidations.value(), before + 1);
}

TEST(Controller, ReadsSeeWritesAcrossFlushes)
{
    EnvyStore store(smallConfig());
    store.writeU64(1000, 0xFACEFEEDull);
    store.flushAll();
    EXPECT_EQ(store.readU64(1000), 0xFACEFEEDull);
    // Rewrite after the flush: a second COW.
    store.writeU64(1000, 0xBEEF);
    EXPECT_EQ(store.readU64(1000), 0xBEEFull);
}

TEST(Controller, WritesSpanPageBoundaries)
{
    EnvyStore store(smallConfig());
    const std::uint32_t ps = store.config().geom.pageSize;
    std::vector<std::uint8_t> data(3 * ps);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);

    const Addr addr = 5 * ps - 13; // straddles three pages
    store.write(addr, data);
    std::vector<std::uint8_t> back(data.size());
    store.read(addr, back);
    EXPECT_EQ(back, data);
}

TEST(Controller, UnpopulatedStoreReadsZeroes)
{
    EnvyConfig cfg = smallConfig();
    cfg.prePopulate = false;
    EnvyStore store(cfg);
    EXPECT_EQ(store.readU64(12345), 0u);
    // And a write to unmapped space works (COW from nothing).
    store.writeU32(12345, 77);
    EXPECT_EQ(store.readU32(12345), 77u);
    EXPECT_EQ(store.readU32(12341), 0u);
}

TEST(Controller, AutoDrainKeepsBufferAtThreshold)
{
    EnvyConfig cfg = smallConfig();
    cfg.bufferThreshold = 8;
    EnvyStore store(cfg);
    // Touch many distinct pages; the buffer must stay bounded.
    const std::uint32_t ps = cfg.geom.pageSize;
    for (std::uint64_t p = 0; p < 200; ++p)
        store.writeU8(p * ps, static_cast<std::uint8_t>(p));
    EXPECT_LT(store.writeBuffer().size(), 9u);
    // All data readable.
    for (std::uint64_t p = 0; p < 200; ++p)
        EXPECT_EQ(store.readU8(p * ps), static_cast<std::uint8_t>(p));
}

TEST(Controller, FullBufferForcesForegroundFlush)
{
    EnvyConfig cfg = smallConfig();
    cfg.autoDrain = false; // nobody drains in the background
    EnvyStore store(cfg);
    Controller &ctl = store.controller();
    const std::uint32_t ps = cfg.geom.pageSize;

    const std::uint32_t cap = store.writeBuffer().capacity();
    for (std::uint64_t p = 0; p < cap + 5; ++p) {
        std::uint8_t v = static_cast<std::uint8_t>(p);
        ctl.write(p * ps, {&v, 1});
    }
    EXPECT_GT(ctl.metForegroundFlushes.value(), 0u);
    EXPECT_TRUE(store.writeBuffer().full());
    for (std::uint64_t p = 0; p < cap + 5; ++p)
        EXPECT_EQ(store.readU8(p * ps), static_cast<std::uint8_t>(p));
}

TEST(Controller, PopulateSequentialFillsInRuns)
{
    EnvyConfig cfg = smallConfig();
    cfg.placement = Controller::Placement::Sequential;
    EnvyStore store(cfg);
    // Page 0 lives in logical segment 0.
    const auto loc = store.pageTable().lookup(LogicalPageId(0));
    ASSERT_EQ(loc.kind, PageTable::LocKind::Flash);
    EXPECT_EQ(store.space().logOf(loc.flash.segment), 0u);
}

TEST(Controller, PopulateAgedFillsSegmentsCompletely)
{
    EnvyConfig cfg = smallConfig();
    cfg.placement = Controller::Placement::Aged;
    cfg.agedStride = 4;
    EnvyStore store(cfg);

    std::uint32_t full = 0, with_free = 0;
    for (std::uint32_t s = 0; s < store.space().numLogical(); ++s) {
        if (store.space().freeSlots(s) == PageCount(0))
            ++full;
        else
            ++with_free;
    }
    // Every 4th segment keeps the free space; the rest are full of
    // live + pre-invalidated slots.
    EXPECT_GT(full, with_free);
    EXPECT_GT(with_free, 0u);
    // Utilization unchanged: exactly logicalPages live.
    EXPECT_EQ(store.flash().totalLive(),
              cfg.geom.effectiveLogicalPages());
    // And the data is all there (zeroes).
    EXPECT_EQ(store.readU64(0), 0u);
}

TEST(Controller, StatsCountHostAccesses)
{
    EnvyStore store(smallConfig());
    Controller &ctl = store.controller();
    store.readU32(0);
    store.writeU32(0, 1);
    EXPECT_EQ(ctl.metHostReads.value(), 1u);
    EXPECT_EQ(ctl.metHostWrites.value(), 1u);
}

TEST(Controller, FlushTicksSeparatePlainFlushesFromCleaningOnes)
{
    EnvyConfig cfg = smallConfig();
    cfg.autoDrain = false;
    EnvyStore store(cfg);
    Controller &ctl = store.controller();
    const std::uint32_t ps = cfg.geom.pageSize;
    auto flushTicks = [&] {
        const obs::MetricsSnapshot snap = store.metrics().snapshot();
        const obs::MetricsSnapshot::Entry *e =
            snap.find("ctl.flush_ticks");
        EXPECT_NE(e, nullptr);
        return e ? e->counts : std::vector<std::uint64_t>{};
    };

    // Flush-only: a plain flush costs one page program, which must
    // land above the lowest edge, not in the underflow bucket.
    for (std::uint64_t p = 0; p < 8; ++p) {
        std::uint8_t v = 1;
        ctl.write(p * ps, {&v, 1});
    }
    ctl.flushAll();
    ASSERT_EQ(ctl.cleaner().metSegmentsCleaned.value(), 0u);
    std::vector<std::uint64_t> counts = flushTicks();
    ASSERT_FALSE(counts.empty());
    EXPECT_EQ(counts[0], 0u) << "plain flushes fell into underflow";
    EXPECT_EQ(counts[1], 8u);

    // Churn until flushes start paying for inline cleans: those cost
    // at least a segment erase and land far above the plain bucket.
    const std::uint64_t pages = store.size() / ps;
    for (std::uint64_t i = 0;
         ctl.cleaner().metSegmentsCleaned.value() == 0 && i < 1000000;
         ++i) {
        std::uint8_t v = 2;
        ctl.write((i * 7 % pages) * ps, {&v, 1});
    }
    ASSERT_GT(ctl.cleaner().metSegmentsCleaned.value(), 0u);
    counts = flushTicks();
    EXPECT_EQ(counts[0], 0u);
    EXPECT_GT(counts[1], 8u);
    std::uint64_t cleaning = 0;
    for (std::size_t b = 6; b < counts.size(); ++b)
        cleaning += counts[b]; // above 30 ms
    EXPECT_GT(cleaning, 0u);
}

TEST(Controller, ProbeReadReportsTlbMiss)
{
    EnvyStore store(smallConfig());
    Controller &ctl = store.controller();
    store.controller().mmu().flushTlb();
    EXPECT_TRUE(ctl.probeRead(0));
    EXPECT_FALSE(ctl.probeRead(0));
}

TEST(ControllerDeathTest, OutOfRangeAccessIsFatal)
{
    EnvyStore store(smallConfig());
    EXPECT_DEATH(store.readU8(store.size()), "beyond");
    EXPECT_DEATH(store.writeU8(store.size() - 1 + 1, 0), "beyond");
}

} // namespace
} // namespace envy

/**
 * @file
 * Differential tests of the flash data plane: the bulk
 * programPage/readPage/eraseSegment fast paths must be bit-exact
 * with the byte-at-a-time CUI oracle (slow_dataplane) — same cell
 * data, wear counters, status registers, spec-failure latching and
 * busy times.  Plus the sparseness contract: a 2 GB Figure-12
 * functional geometry constructs in O(metadata) memory and RSS
 * grows only with touched erase blocks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "envy/envy_store.hh"
#include "flash/flash_array.hh"
#include "flash/flash_bank.hh"
#include "sim/random.hh"

#if defined(__linux__)
#include <unistd.h>
#endif

// The RSS smoke asserts a hard byte ceiling, which sanitizer
// instrumentation (shadow memory, quarantines) blows through for
// reasons unrelated to the store's sparseness.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ENVY_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ENVY_TEST_SANITIZED 1
#endif
#endif

namespace envy {
namespace {

constexpr std::uint32_t chips = 16;   // page size in bytes
constexpr std::uint32_t blockLen = 64; // pages per segment
constexpr std::uint32_t blocks = 4;

FlashBank
makeBank(bool slow, const FlashTiming &timing = FlashTiming{})
{
    return FlashBank(chips, blockLen, blocks, timing, true, slow);
}

/** Compare every observable of the two banks: full cell contents,
 *  per-chip status registers, wear, spec-failure records. */
void
expectBanksEqual(const FlashBank &fast, const FlashBank &slow)
{
    std::vector<std::uint8_t> a(chips), b(chips);
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
        for (std::uint32_t p = 0; p < blockLen; ++p) {
            fast.readPage(blk, p, a);
            slow.readPage(blk, p, b);
            ASSERT_EQ(a, b) << "block " << blk << " page " << p;
        }
        EXPECT_EQ(fast.segmentCycles(blk), slow.segmentCycles(blk));
        EXPECT_EQ(fast.blockSpecFailed(blk), slow.blockSpecFailed(blk));
    }
    for (std::uint32_t j = 0; j < chips; ++j) {
        EXPECT_EQ(fast.chip(j).status(), slow.chip(j).status())
            << "chip " << j;
        EXPECT_EQ(fast.chip(j).specFailedBlocks(),
                  slow.chip(j).specFailedBlocks());
    }
    EXPECT_EQ(fast.specFailedBlocks(), slow.specFailedBlocks());
    EXPECT_EQ(fast.outOfSpec(), slow.outOfSpec());
    EXPECT_EQ(fast.allReady(), slow.allReady());
    EXPECT_EQ(fast.allProgrammedOk(), slow.allProgrammedOk());
    EXPECT_EQ(fast.allErasedOk(), slow.allErasedOk());
    EXPECT_EQ(fast.materializedBlocks(), slow.materializedBlocks());
}

TEST(Dataplane, RandomChurnMatchesOracle)
{
    FlashBank fast = makeBank(false);
    FlashBank slow = makeBank(true);
    ASSERT_FALSE(fast.slowDataplane());
    ASSERT_TRUE(slow.slowDataplane());

    Rng rng(2024);
    std::vector<std::uint8_t> data(chips);
    for (int op = 0; op < 4000; ++op) {
        const auto blk = static_cast<std::uint32_t>(rng.below(blocks));
        const auto p = static_cast<std::uint32_t>(rng.below(blockLen));
        const double roll = 0.01 * static_cast<double>(rng.below(100));
        if (roll < 0.70) {
            // Program: biased toward 0xFF bytes so reprogramming an
            // already-programmed page is often legal (AND semantics)
            // and sometimes a program error (0 -> 1 request).
            for (auto &v : data) {
                v = rng.chance(0.5)
                        ? 0xFF
                        : static_cast<std::uint8_t>(rng.next());
            }
            EXPECT_EQ(fast.programPage(blk, p, data),
                      slow.programPage(blk, p, data));
        } else if (roll < 0.90) {
            std::vector<std::uint8_t> a(chips), b(chips);
            EXPECT_EQ(fast.readPage(blk, p, a),
                      slow.readPage(blk, p, b));
            EXPECT_EQ(a, b);
        } else if (roll < 0.97) {
            EXPECT_EQ(fast.eraseSegment(blk), slow.eraseSegment(blk));
        } else {
            fast.clearStatus();
            slow.clearStatus();
        }
        if (op % 500 == 0)
            expectBanksEqual(fast, slow);
    }
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, ProgramErrorParity)
{
    FlashBank fast = makeBank(false);
    FlashBank slow = makeBank(true);

    // Lane j holds ~j; asking for 0xFF afterwards requests 0 -> 1 on
    // every lane but lane 0 (which holds 0xFF already).
    std::vector<std::uint8_t> first(chips), again(chips, 0xFF);
    for (std::uint32_t j = 0; j < chips; ++j)
        first[j] = static_cast<std::uint8_t>(~j);
    for (FlashBank *bank : {&fast, &slow}) {
        bank->programPage(1, 3, first);
        ASSERT_TRUE(bank->allProgrammedOk());
        bank->programPage(1, 3, again);
        EXPECT_FALSE(bank->allProgrammedOk());
        // An illegal program never touches the cells or the
        // spec-failure record.
        EXPECT_FALSE(bank->blockSpecFailed(1));
        EXPECT_FALSE(bank->outOfSpec());
        std::vector<std::uint8_t> out(chips);
        bank->readPage(1, 3, out);
        EXPECT_EQ(out, first);
        // Lane 0's request was legal (0xFF & ~0xFF == 0).
        EXPECT_EQ(bank->chip(0).status() & FlashStatus::programError,
                  0);
        EXPECT_NE(bank->chip(1).status() & FlashStatus::programError,
                  0);
    }
    expectBanksEqual(fast, slow);

    fast.clearStatus();
    slow.clearStatus();
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, ProgramClearsSuspendedParity)
{
    FlashBank fast = makeBank(false);
    FlashBank slow = makeBank(true);
    std::vector<std::uint8_t> data(chips, 0x3C);
    for (FlashBank *bank : {&fast, &slow}) {
        for (std::uint32_t j = 0; j < chips; ++j)
            bank->chip(j).writeCommand(FlashCmd::Suspend);
        EXPECT_NE(bank->chip(2).status() & FlashStatus::suspended, 0);
        bank->programPage(0, 0, data);
        for (std::uint32_t j = 0; j < chips; ++j) {
            EXPECT_EQ(bank->chip(j).status() & FlashStatus::suspended,
                      0);
        }
    }
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, ReadStatusLaneFallsBackToOracle)
{
    FlashBank fast = makeBank(false);
    FlashBank slow = makeBank(true);
    std::vector<std::uint8_t> data(chips);
    for (std::uint32_t j = 0; j < chips; ++j)
        data[j] = static_cast<std::uint8_t>(0xA0 + j);
    fast.programPage(2, 5, data);
    slow.programPage(2, 5, data);

    // Chip 3 left in ReadStatus: its lane must read as the status
    // register, the others as cell data — on both paths.
    fast.chip(3).writeCommand(FlashCmd::ReadStatus);
    slow.chip(3).writeCommand(FlashCmd::ReadStatus);
    std::vector<std::uint8_t> a(chips), b(chips);
    fast.readPage(2, 5, a);
    slow.readPage(2, 5, b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[3], FlashStatus::ready);
    EXPECT_EQ(a[0], 0xA0);

    fast.chip(3).writeCommand(FlashCmd::ReadArray);
    slow.chip(3).writeCommand(FlashCmd::ReadArray);
    fast.readPage(2, 5, a);
    slow.readPage(2, 5, b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[3], data[3]);
}

TEST(Dataplane, WearOverrunParity)
{
    // Rated window one tick below the base program time: every
    // program overruns, so legal lanes write *and* spec-fail.
    FlashTiming hot;
    hot.maxProgramTime = hot.programTime - 1;
    FlashBank fast = makeBank(false, hot);
    FlashBank slow = makeBank(true, hot);

    std::vector<std::uint8_t> data(chips, 0x0F);
    EXPECT_EQ(fast.programPage(0, 7, data),
              slow.programPage(0, 7, data));
    for (FlashBank *bank : {&fast, &slow}) {
        EXPECT_TRUE(bank->blockSpecFailed(0));
        EXPECT_TRUE(bank->outOfSpec());
        EXPECT_FALSE(bank->allProgrammedOk());
        std::vector<std::uint8_t> out(chips);
        bank->readPage(0, 7, out);
        EXPECT_EQ(out, data); // overrun still writes the data
    }
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, MixedErrorAndOverrunParity)
{
    // Overrun timing plus a page where half the lanes request an
    // illegal 0 -> 1: the error lanes latch programError only (no
    // spec-fail record), the legal lanes write and spec-fail.
    FlashTiming hot;
    hot.maxProgramTime = hot.programTime - 1;
    FlashBank fast = makeBank(false, hot);
    FlashBank slow = makeBank(true, hot);

    std::vector<std::uint8_t> first(chips), second(chips);
    for (std::uint32_t j = 0; j < chips; ++j) {
        first[j] = (j % 2) ? 0x00 : 0xFF;
        second[j] = (j % 2) ? 0xFF : 0x00; // odd lanes: 0 -> 1 error
    }
    // First program: all lanes legal (cells erased), all spec-fail.
    fast.programPage(3, 0, first);
    slow.programPage(3, 0, first);
    fast.clearStatus();
    slow.clearStatus();
    // Spec-failure records survive ClearStatus (physical damage).
    EXPECT_TRUE(fast.blockSpecFailed(3));

    fast.programPage(3, 0, second);
    slow.programPage(3, 0, second);
    for (FlashBank *bank : {&fast, &slow}) {
        for (std::uint32_t j = 0; j < chips; ++j) {
            // Every lane latched programError — odd ones from the
            // illegal request, even ones from the wear overrun.
            EXPECT_NE(bank->chip(j).status() &
                          FlashStatus::programError,
                      0);
        }
        std::vector<std::uint8_t> out(chips);
        bank->readPage(3, 0, out);
        for (std::uint32_t j = 0; j < chips; ++j) {
            // Odd lanes kept 0x00 (error, no write); even lanes
            // went 0xFF & 0x00 = 0x00.
            EXPECT_EQ(out[j], 0x00);
        }
    }
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, EraseOverrunParity)
{
    FlashTiming hot;
    hot.maxEraseTime = hot.eraseTime - 1;
    FlashBank fast = makeBank(false, hot);
    FlashBank slow = makeBank(true, hot);
    std::vector<std::uint8_t> data(chips, 0x00);
    fast.programPage(1, 1, data);
    slow.programPage(1, 1, data);

    EXPECT_EQ(fast.eraseSegment(1), slow.eraseSegment(1));
    for (FlashBank *bank : {&fast, &slow}) {
        EXPECT_FALSE(bank->allErasedOk());
        EXPECT_TRUE(bank->blockSpecFailed(1));
        EXPECT_EQ(bank->segmentCycles(1), 1u);
        std::vector<std::uint8_t> out(chips);
        bank->readPage(1, 1, out);
        for (const std::uint8_t v : out)
            EXPECT_EQ(v, 0xFF);
    }
    expectBanksEqual(fast, slow);
}

TEST(Dataplane, LazyEraseKeepsStoreSparse)
{
    FlashBank bank = makeBank(false);
    EXPECT_EQ(bank.materializedBlocks(), 0u);

    // All-ones program of an erased page: a no-op, stays sparse.
    std::vector<std::uint8_t> ones(chips, 0xFF);
    bank.programPage(0, 0, ones);
    EXPECT_EQ(bank.materializedBlocks(), 0u);

    std::vector<std::uint8_t> data(chips, 0x55);
    bank.programPage(0, 0, data);
    EXPECT_EQ(bank.materializedBlocks(), 1u);

    // Reads never materialize, not even of untouched blocks.
    std::vector<std::uint8_t> out(chips);
    bank.readPage(3, 9, out);
    for (const std::uint8_t v : out)
        EXPECT_EQ(v, 0xFF);
    EXPECT_EQ(bank.materializedBlocks(), 1u);

    // Erase drops the buffer; the 0xFF fill is never performed.
    bank.eraseSegment(0);
    EXPECT_EQ(bank.materializedBlocks(), 0u);
    bank.readPage(0, 0, out);
    for (const std::uint8_t v : out)
        EXPECT_EQ(v, 0xFF);
    EXPECT_EQ(bank.materializedBlocks(), 0u);
}

TEST(Dataplane, ArrayFaultInjectionParity)
{
    // Twin FlashArrays, fast vs slow, with an identical deterministic
    // program-fault plan: every 13th program attempt spec-fails, so
    // the retire/retry machinery runs on both and must agree.
    Geometry g;
    g.pageSize = 16;
    g.blockBytes = 64;
    g.blocksPerChip = 4;
    g.numBanks = 2;
    ASSERT_EQ(g.validate(), nullptr);
    const FlashTiming ft;
    obs::MetricsRegistry fast_metrics, slow_metrics;
    FlashArray fast(g, ft, true, &fast_metrics, false);
    FlashArray slow(g, ft, true, &slow_metrics, true);
    ASSERT_FALSE(fast.slowDataplane());
    ASSERT_TRUE(slow.slowDataplane());

    std::uint64_t fast_attempts = 0, slow_attempts = 0;
    fast.programFaultHook = [&](SegmentId, SlotId) {
        return ++fast_attempts % 13 == 0;
    };
    slow.programFaultHook = [&](SegmentId, SlotId) {
        return ++slow_attempts % 13 == 0;
    };

    Rng rng(77);
    std::vector<std::uint8_t> page(g.pageSize);
    std::vector<FlashPageAddr> fast_live, slow_live;
    for (int round = 0; round < 6; ++round) {
        const SegmentId seg{static_cast<std::uint32_t>(
            rng.below(g.numSegments()))};
        // Fill the segment, invalidating most appends as we go.
        while (fast.freeSlots(seg) > PageCount(0)) {
            for (auto &v : page)
                v = static_cast<std::uint8_t>(rng.next());
            const LogicalPageId logical(rng.below(1000));
            const FlashPageAddr fa = fast.appendPage(seg, logical, page);
            const FlashPageAddr sa = slow.appendPage(seg, logical, page);
            ASSERT_EQ(fa.segment.value(), sa.segment.value());
            ASSERT_EQ(fa.slot.value(), sa.slot.value());
            if (rng.chance(0.8)) {
                fast.invalidatePage(fa);
                slow.invalidatePage(sa);
            } else {
                fast_live.push_back(fa);
                slow_live.push_back(sa);
            }
        }
        ASSERT_EQ(fast.freeSlots(seg), slow.freeSlots(seg));
        // Live data must read back identically before the erase.
        std::vector<std::uint8_t> a(g.pageSize), b(g.pageSize);
        for (std::size_t i = 0; i < fast_live.size(); ++i) {
            fast.readPage(fast_live[i], a);
            slow.readPage(slow_live[i], b);
            ASSERT_EQ(a, b);
        }
        for (const FlashPageAddr &addr : fast_live)
            fast.invalidatePage(addr);
        for (const FlashPageAddr &addr : slow_live)
            slow.invalidatePage(addr);
        fast_live.clear();
        slow_live.clear();
        EXPECT_EQ(fast.eraseSegment(seg), slow.eraseSegment(seg));
    }

    EXPECT_EQ(fast_attempts, slow_attempts);
    const obs::MetricsSnapshot fast_snap = fast_metrics.snapshot();
    const obs::MetricsSnapshot slow_snap = slow_metrics.snapshot();
    // flash.slots_retired counts the program spec-failures.
    for (const char *name : {"flash.programs", "flash.invalidations",
                             "flash.erases", "flash.slots_retired",
                             "flash.erase_spec_failures"})
        EXPECT_EQ(fast_snap.counter(name), slow_snap.counter(name))
            << name;
    EXPECT_GT(fast_snap.counter("flash.slots_retired"), 0u);
    for (std::uint32_t s = 0; s < g.numSegments(); ++s) {
        const SegmentId seg{s};
        EXPECT_EQ(fast.eraseCycles(seg), slow.eraseCycles(seg));
        EXPECT_EQ(fast.retiredCount(seg), slow.retiredCount(seg));
    }
    const std::vector<SegmentId> ff = fast.specFailedSegments();
    const std::vector<SegmentId> sf = slow.specFailedSegments();
    ASSERT_EQ(ff.size(), sf.size());
    for (std::size_t i = 0; i < ff.size(); ++i)
        EXPECT_EQ(ff[i].value(), sf[i].value());
}

TEST(Dataplane, StoreChurnMatchesOracleEndToEnd)
{
    // Whole-stack differential: twin EnvyStores driven by the same
    // write stream; cleaning, wear leveling and buffer flushes all
    // ride the data plane under test.
    EnvyConfig base;
    base.geom = Geometry::tiny();
    base.geom.writeBufferPages = 32;
    base.wearThreshold = 8; // make rotations happen
    EnvyConfig slow_cfg = base;
    slow_cfg.slowDataplane = true;
    EnvyStore fast(base);
    EnvyStore slow(slow_cfg);
    ASSERT_FALSE(fast.flash().slowDataplane());
    ASSERT_TRUE(slow.flash().slowDataplane());

    Rng rng(9);
    std::vector<std::uint8_t> data(3 * base.geom.pageSize);
    const std::uint64_t size = fast.size();
    for (int op = 0; op < 400; ++op) {
        const Addr addr = rng.below(size);
        const std::uint64_t len = std::min<std::uint64_t>(
            rng.between(1, data.size()), size - addr);
        for (std::uint64_t i = 0; i < len; ++i)
            data[i] = static_cast<std::uint8_t>(rng.next());
        fast.write(addr, {data.data(), len});
        slow.write(addr, {data.data(), len});
    }
    fast.flushAll();
    slow.flushAll();

    // Same logical contents...
    std::vector<std::uint8_t> a(4096), b(4096);
    for (std::uint64_t off = 0; off < size; off += a.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(a.size(), size - off);
        fast.read(off, {a.data(), n});
        slow.read(off, {b.data(), n});
        ASSERT_EQ(a, b) << "offset " << off;
    }
    // ...and the same physical history.
    const obs::MetricsSnapshot fast_snap = fast.metrics().snapshot();
    const obs::MetricsSnapshot slow_snap = slow.metrics().snapshot();
    for (const char *name :
         {"flash.programs", "flash.erases", "flash.invalidations"})
        EXPECT_EQ(fast_snap.counter(name), slow_snap.counter(name))
            << name;
    EXPECT_EQ(fast.cleaningCost(), slow.cleaningCost());
    for (std::uint32_t s = 0; s < fast.flash().numSegments(); ++s) {
        const SegmentId seg{s};
        EXPECT_EQ(fast.flash().eraseCycles(seg),
                  slow.flash().eraseCycles(seg));
        EXPECT_EQ(fast.flash().liveCount(seg),
                  slow.flash().liveCount(seg));
    }
}

#if defined(__linux__) && !defined(ENVY_TEST_SANITIZED)

std::uint64_t
rssBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long pages_total = 0, pages_rss = 0;
    const int got =
        std::fscanf(f, "%llu %llu", &pages_total, &pages_rss);
    std::fclose(f);
    if (got != 2)
        return 0;
    return pages_rss *
           static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Dataplane, PaperScaleFunctionalGeometryIsSparse)
{
    // The full Figure-12 array (2 GB of cells) in functional mode.
    // Before the page-major sparse store this allocated 2 GB up
    // front; now construction is O(metadata) and RSS grows only with
    // touched erase blocks (16 MB of cells each).
    const std::uint64_t rss_before = rssBytes();
    ASSERT_GT(rss_before, 0u);

    const Geometry g = Geometry::paperSystem();
    const FlashTiming ft;
    FlashArray flash(g, ft, true);
    EXPECT_EQ(flash.materializedBlocks(), 0u);

    // Touch three segments with real data.
    std::vector<std::uint8_t> page(g.pageSize, 0x5A);
    std::vector<std::uint8_t> out(g.pageSize);
    const std::uint32_t touched = 3;
    for (std::uint32_t s = 0; s < touched; ++s) {
        const SegmentId seg{s * 40}; // spread across banks
        const FlashPageAddr addr =
            flash.appendPage(seg, LogicalPageId(s), page);
        flash.readPage(addr, out);
        EXPECT_EQ(out, page);
    }
    EXPECT_EQ(flash.materializedBlocks(), touched);

    const std::uint64_t rss_after = rssBytes();
    ASSERT_GT(rss_after, 0u);
    // 3 materialized segments = 48 MB of cells.  Allow generous
    // slack for metadata (per-slot owner words etc.) but stay far
    // below the 2 GB a dense layout would need.
    EXPECT_LT(rss_after - rss_before, 256ull * 1024 * 1024)
        << "sparse store materialized too much";
}

#endif // __linux__ && !ENVY_TEST_SANITIZED

} // namespace
} // namespace envy

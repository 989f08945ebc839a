/**
 * @file
 * google-benchmark micro-benchmarks of the core data paths: page
 * table walks, MMU-cached translations, host word reads/writes,
 * copy-on-write, flush and a full segment clean.  These quantify the
 * simulator's own costs (useful when sizing paper-scale runs), not
 * the modelled hardware latencies.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "envy/envy_store.hh"
#include "envy/segment_space.hh"
#include "flash/flash_bank.hh"
#include "flash/flash_timing.hh"
#include "serve/protocol.hh"
#include "sim/random.hh"

namespace {

using namespace envy;

EnvyConfig
benchConfig(bool store_data)
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 64;
    cfg.storeData = store_data;
    return cfg;
}

// Bank geometry for the data-plane micro-benches: 256 B pages,
// 512-page segments.  Arg(0)=1 is the bulk fast path, Arg(0)=0 the
// byte-at-a-time CUI oracle, so `--benchmark_filter=BM_Page` prints
// the speedup pair side by side (bench_dataplane has the same
// comparison as a ResultTable harness).
constexpr std::uint32_t dpPageSize = 256;
constexpr std::uint32_t dpBlockBytes = 512;
constexpr std::uint32_t dpBlocks = 4;

FlashBank
dataplaneBank(bool slow)
{
    return FlashBank(dpPageSize, dpBlockBytes, dpBlocks,
                     FlashTiming{}, true, slow);
}

void
BM_PageProgram(benchmark::State &state)
{
    FlashBank bank = dataplaneBank(state.range(0) == 0);
    std::vector<std::uint8_t> page(dpPageSize);
    for (std::uint32_t i = 0; i < dpPageSize; ++i)
        page[i] = static_cast<std::uint8_t>(i * 7 + 3);
    std::uint32_t b = 0, p = 0;
    for (auto _ : state) {
        bank.programPage(b, p, page);
        if (++p == dpBlockBytes) {
            p = 0;
            // Erase outside the timed region before re-programming.
            state.PauseTiming();
            bank.eraseSegment(b);
            state.ResumeTiming();
            b = (b + 1) % dpBlocks;
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * dpPageSize);
    state.SetLabel(state.range(0) ? "fast" : "slow");
}
BENCHMARK(BM_PageProgram)->Arg(1)->Arg(0);

void
BM_PageRead(benchmark::State &state)
{
    FlashBank bank = dataplaneBank(state.range(0) == 0);
    std::vector<std::uint8_t> page(dpPageSize);
    for (std::uint32_t p = 0; p < dpBlockBytes; ++p) {
        for (std::uint32_t i = 0; i < dpPageSize; ++i)
            page[i] = static_cast<std::uint8_t>(p + i);
        bank.programPage(0, p, page);
    }
    std::uint32_t p = 0;
    for (auto _ : state) {
        bank.readPage(0, p, page);
        benchmark::DoNotOptimize(page.data());
        p = (p + 1) % dpBlockBytes;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * dpPageSize);
    state.SetLabel(state.range(0) ? "fast" : "slow");
}
BENCHMARK(BM_PageRead)->Arg(1)->Arg(0);

void
BM_SegmentErase(benchmark::State &state)
{
    FlashBank bank = dataplaneBank(state.range(0) == 0);
    std::vector<std::uint8_t> page(dpPageSize, 0x5A);
    std::uint32_t b = 0;
    for (auto _ : state) {
        // Materialize the block so the erase has cells to reset.
        state.PauseTiming();
        bank.programPage(b, 0, page);
        state.ResumeTiming();
        bank.eraseSegment(b);
        b = (b + 1) % dpBlocks;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) ? "fast" : "slow");
}
BENCHMARK(BM_SegmentErase)->Arg(1)->Arg(0);

void
BM_PageTableLookup(benchmark::State &state)
{
    SramArray sram(PageTable::bytesNeeded(1 << 16));
    PageTable table(sram, 0, 1 << 16);
    for (std::uint64_t p = 0; p < (1 << 16); ++p)
        table.mapToFlash(LogicalPageId(p),
                         {SegmentId(p % 15),
                          SlotId(static_cast<std::uint32_t>(p))});
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(LogicalPageId(rng.below(1 << 16))));
    }
}
BENCHMARK(BM_PageTableLookup);

void
BM_MmuHit(benchmark::State &state)
{
    SramArray sram(PageTable::bytesNeeded(1 << 16));
    PageTable table(sram, 0, 1 << 16);
    Mmu mmu(table, 1024);
    table.mapToSram(LogicalPageId(7), BufferSlotId(3));
    mmu.lookup(LogicalPageId(7));
    for (auto _ : state)
        benchmark::DoNotOptimize(mmu.lookup(LogicalPageId(7)));
}
BENCHMARK(BM_MmuHit);

void
BM_HostRead(benchmark::State &state)
{
    EnvyStore store(benchConfig(true));
    Rng rng(2);
    std::uint8_t buf[8];
    for (auto _ : state)
        store.read(rng.below(store.size() - 8), buf);
}
BENCHMARK(BM_HostRead);

void
BM_HostWriteBufferHit(benchmark::State &state)
{
    EnvyStore store(benchConfig(true));
    store.writeU64(0, 1); // resident page
    std::uint64_t v = 0;
    for (auto _ : state)
        store.writeU64(0, ++v);
}
BENCHMARK(BM_HostWriteBufferHit);

void
BM_CopyOnWriteChurn(benchmark::State &state)
{
    // Every write touches a fresh page: worst-case COW + flush +
    // cleaning mix (the paper's whole write path).
    EnvyStore store(benchConfig(state.range(0) != 0));
    const std::uint32_t ps = store.config().geom.pageSize;
    Rng rng(3);
    for (auto _ : state) {
        std::uint8_t b = 1;
        store.write(rng.below(store.size() / ps) * ps, {&b, 1});
    }
    state.SetLabel(state.range(0) ? "functional" : "metadata-only");
}
BENCHMARK(BM_CopyOnWriteChurn)->Arg(1)->Arg(0);

void
BM_VictimSelection(benchmark::State &state)
{
    // Victim selection + roomiest-segment lookup through the
    // SegmentSpace indexes, with one append/invalidate per iteration
    // keeping the index maintenance in the measured path.  ns/op
    // should stay flat from 128 to 8192 segments (the pre-index
    // implementation rescanned every segment per query).
    const auto segments =
        static_cast<std::uint32_t>(state.range(0));
    Geometry g;
    g.pageSize = 64;
    g.blockBytes = 64; // 64 pages per segment: cheap erase cycles
    g.numBanks = 8;
    g.blocksPerChip = segments / 8;
    const FlashTiming ft;
    FlashArray flash(g, ft, false);
    SramArray sram(
        SegmentSpace::bytesNeeded(g.numSegments()).value());
    SegmentSpace space(flash, sram, 0);

    // Uneven prefill so the queries have real work to distinguish:
    // per-segment free and invalid counts both vary with l.  Every
    // page is dead so the churn loop below may erase any segment.
    for (std::uint32_t l = 0; l < space.numLogical(); ++l) {
        const SegmentId phys = space.physOf(l);
        for (std::uint32_t j = 0; j < l % 48; ++j) {
            const FlashPageAddr a = flash.appendPage(
                phys, LogicalPageId(std::uint64_t{l} * 64 + j));
            flash.invalidatePage(a);
        }
    }

    std::uint64_t it = 0;
    for (auto _ : state) {
        const SegmentId churn =
            space.physOf(static_cast<std::uint32_t>(
                it++ % space.numLogical()));
        if (flash.freeSlots(churn) == PageCount(0))
            flash.eraseSegment(churn);
        const FlashPageAddr a =
            flash.appendPage(churn, LogicalPageId(1));
        flash.invalidatePage(a);
        benchmark::DoNotOptimize(space.mostInvalidLogical());
        benchmark::DoNotOptimize(space.roomiestLogical());
    }
    state.SetLabel(std::to_string(segments) + " segments");
}
BENCHMARK(BM_VictimSelection)->RangeMultiplier(4)->Range(128, 8192);

void
BM_EncodeDecode(benchmark::State &state)
{
    // Wire-protocol round trip for one Ok Get response (the serve
    // front end's per-request encode + the client's decode).
    // Arg(0)=1 is the hot path — appendResponse() reusing one
    // buffer's capacity, as a connection's ResponseWriter does — and
    // Arg(0)=0 the allocating encodeResponse() wrapper, so the pair
    // prints what the reused buffer buys per response.
    serve::Response resp;
    resp.op = serve::Op::Get;
    resp.requestId = 42;
    resp.status = serve::Status::Ok;
    resp.value.assign(64, 'v');

    std::vector<std::uint8_t> scratch;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        serve::FrameDecoder dec;
        if (state.range(0)) {
            scratch.clear();
            serve::appendResponse(resp, scratch);
            dec.feed(scratch);
            bytes += scratch.size();
        } else {
            const std::vector<std::uint8_t> frame =
                serve::encodeResponse(resp);
            dec.feed(frame);
            bytes += frame.size();
        }
        auto raw = dec.next();
        ENVY_ASSERT(raw.has_value(), "encode/decode round trip lost");
        serve::Response out;
        const serve::FrameError err = serve::parseResponse(*raw, out);
        ENVY_ASSERT(err == serve::FrameError::None, "bad frame");
        benchmark::DoNotOptimize(out.value.data());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
    state.SetLabel(state.range(0) ? "scratch" : "alloc");
}
BENCHMARK(BM_EncodeDecode)->Arg(1)->Arg(0);

void
BM_SegmentClean(benchmark::State &state)
{
    EnvyConfig cfg = benchConfig(false);
    cfg.policy = PolicyKind::Fifo;
    EnvyStore store(cfg);
    const std::uint32_t ps = cfg.geom.pageSize;
    Rng rng(4);
    std::uint64_t cleans = 0;
    for (auto _ : state) {
        // Drive writes until one more clean has happened.
        const std::uint64_t target =
            store.cleanerRef().metSegmentsCleaned.value() + 1;
        while (store.cleanerRef().metSegmentsCleaned.value() < target) {
            std::uint8_t b = 1;
            store.write(rng.below(store.size() / ps) * ps, {&b, 1});
        }
        ++cleans;
    }
    state.counters["pages/clean"] = benchmark::Counter(
        static_cast<double>(
            store.cleanerRef().metPagesCopied.value()) /
        static_cast<double>(cleans));
}
BENCHMARK(BM_SegmentClean);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Host-side throughput of the flash data plane: the bulk
 * programPage/readPage/eraseSegment fast paths against the
 * byte-at-a-time CUI oracle (ENVY_SLOW_DATAPLANE / slow_dataplane).
 *
 * Both paths are bit-exact (tests/test_dataplane.cc proves it); this
 * harness quantifies what the page-granular rework buys on the host:
 * one wear/timing computation and one contiguous copy per page
 * instead of pageSize per-chip round trips.  Four tables:
 *
 *   BM_PageProgram   bank program of erased pages
 *   BM_PageRead      bank wide-path read of programmed pages
 *   BM_SegmentErase  bank erase of a materialized segment
 *   BM_SegmentClean  whole-stack cleans (EnvyStore, FIFO policy)
 *
 * Each table has a fast and a slow row plus a speedup column
 * (slow ns / fast ns).  BM_PageProgram adds a persist row — the same
 * fast path writing through a MAP_SHARED store file
 * (docs/PERSISTENCE.md) — to quantify what durability costs on the
 * program path; the acceptance bar is within 2x of anonymous.  All cells except the op counts are host
 * wall-clock and vary run to run — this bench is about the
 * simulator's own speed, not modelled hardware latencies, so it is
 * deliberately excluded from the determinism suite and from
 * BENCH_baseline.json; its reports land in BENCH_wallclock.json.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <cstdio>

#include <unistd.h>

#include "envy/envy_store.hh"
#include "envysim/experiment.hh"
#include "flash/flash_bank.hh"
#include "flash/flash_timing.hh"
#include "persist/flash_backing.hh"
#include "persist/store_file.hh"
#include "sim/random.hh"

using namespace envy;

namespace {

// Bank geometry for the device-level tables: 256 B pages (256 chips
// wide), 512-page erase blocks, 4 blocks per chip.  The slow path
// pays 256 per-chip CUI round trips per page on this geometry.
constexpr std::uint32_t bankPageSize = 256;
constexpr std::uint32_t bankBlockBytes = 512;
constexpr std::uint32_t bankBlocks = 4;

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

FlashBank
makeBank(bool slow)
{
    return FlashBank(bankPageSize, bankBlockBytes, bankBlocks,
                     FlashTiming{}, true, slow);
}

/** Fill @p page with a cheap per-page pattern (no all-0xFF pages, so
 *  every program actually moves data). */
void
fillPage(std::vector<std::uint8_t> &page, std::uint32_t salt)
{
    for (std::uint32_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>((salt * 31 + i * 7) | 1);
}

struct Measurement
{
    std::uint64_t ops = 0;
    double wallMs = 0;

    double nsPerOp() const
    {
        return wallMs * 1e6 / static_cast<double>(ops);
    }
    double opsPerSec() const
    {
        return static_cast<double>(ops) / (wallMs * 1e-3);
    }
};

/** The timed body shared by the program rows: program every page of
 *  every block, @p reps times; erases between reps are untimed so
 *  the cells measure programs only. */
Measurement
programLoop(FlashBank &bank, std::uint32_t reps)
{
    std::vector<std::uint8_t> page(bankPageSize);
    Measurement m;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        for (std::uint32_t b = 0; b < bankBlocks; ++b) {
            for (std::uint32_t p = 0; p < bankBlockBytes; ++p) {
                fillPage(page, rep + b * bankBlockBytes + p);
                bank.programPage(b, p, page);
                ++m.ops;
            }
        }
        m.wallMs += msBetween(t0, Clock::now());
        for (std::uint32_t b = 0; b < bankBlocks; ++b)
            bank.eraseSegment(b);
    }
    return m;
}

Measurement
runProgram(bool slow, std::uint32_t reps)
{
    FlashBank bank = makeBank(slow);
    return programLoop(bank, reps);
}

/** Fast-path programs writing through a MAP_SHARED store file: the
 *  durable-mode cost of the same loop (docs/PERSISTENCE.md). */
Measurement
runProgramPersist(std::uint32_t reps)
{
    const std::string path = "/tmp/bench_dataplane_persist." +
                             std::to_string(::getpid()) + ".envy";
    std::remove(path.c_str());
    persist::StoreParams params;
    params.pageSize = bankPageSize;
    params.blockBytes = bankBlockBytes;
    params.blocksPerChip = bankBlocks;
    params.numBanks = 1;
    params.logicalPages = 1; // unused by the bank-level path
    params.writeBufferPages = 1;
    params.storeData = 1;
    params.sramBytes = 64;
    Measurement m;
    {
        persist::StoreFile file(path, params);
        persist::BankBacking backing(file, 0);
        FlashBank bank(bankPageSize, bankBlockBytes, bankBlocks,
                       FlashTiming{}, true, false, nullptr, &backing);
        m = programLoop(bank, reps);
    }
    std::remove(path.c_str());
    return m;
}

/** Read every page of every block, @p reps times, after one untimed
 *  populate pass. */
Measurement
runRead(bool slow, std::uint32_t reps)
{
    FlashBank bank = makeBank(slow);
    std::vector<std::uint8_t> page(bankPageSize);
    for (std::uint32_t b = 0; b < bankBlocks; ++b) {
        for (std::uint32_t p = 0; p < bankBlockBytes; ++p) {
            fillPage(page, b * bankBlockBytes + p);
            bank.programPage(b, p, page);
        }
    }
    Measurement m;
    volatile std::uint8_t sink = 0;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        for (std::uint32_t b = 0; b < bankBlocks; ++b) {
            for (std::uint32_t p = 0; p < bankBlockBytes; ++p) {
                bank.readPage(b, p, page);
                ++m.ops;
            }
        }
        m.wallMs += msBetween(t0, Clock::now());
        sink = static_cast<std::uint8_t>(sink ^ page[0]);
    }
    return m;
}

/** Erase a materialized segment @p reps times; the one-page program
 *  that re-materializes the block between erases is untimed. */
Measurement
runErase(bool slow, std::uint32_t reps)
{
    FlashBank bank = makeBank(slow);
    std::vector<std::uint8_t> page(bankPageSize);
    Measurement m;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        const std::uint32_t b = rep % bankBlocks;
        fillPage(page, rep);
        bank.programPage(b, 0, page);
        const auto t0 = Clock::now();
        bank.eraseSegment(b);
        m.wallMs += msBetween(t0, Clock::now());
        ++m.ops;
    }
    return m;
}

/** Whole-stack cleans: drive fresh-page writes through an EnvyStore
 *  until @p cleans segment cleans have run. */
Measurement
runClean(bool slow, std::uint64_t cleans)
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 64;
    cfg.policy = PolicyKind::Fifo;
    cfg.slowDataplane = slow;
    EnvyStore store(cfg);
    const std::uint32_t ps = cfg.geom.pageSize;
    Rng rng(7);

    Measurement m;
    const auto t0 = Clock::now();
    const std::uint64_t target =
        store.cleanerRef().metSegmentsCleaned.value() + cleans;
    while (store.cleanerRef().metSegmentsCleaned.value() < target) {
        std::uint8_t byte = 1;
        store.write(rng.below(store.size() / ps) * ps, {&byte, 1});
    }
    m.wallMs = msBetween(t0, Clock::now());
    m.ops = cleans;
    return m;
}

/** One table: labelled rows, speedup relative to the last (the slow
 *  baseline, whose speedup prints exactly 1.00x). */
void
addTable(BenchReport &report, const std::string &title,
         const std::string &op_name,
         const std::vector<std::pair<std::string, Measurement>> &rows)
{
    ResultTable t(title);
    t.setColumns({"path", op_name, "wall_ms", "ns/op", op_name + "/s",
                  "speedup"});
    const Measurement &base = rows.back().second;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measurement &m = rows[i].second;
        const std::string speedup =
            i + 1 == rows.size()
                ? "1.00x"
                : ResultTable::num(base.nsPerOp() / m.nsPerOp(), 2) +
                      "x";
        t.addRow({rows[i].first, ResultTable::integer(m.ops),
                  ResultTable::num(m.wallMs, 2),
                  ResultTable::num(m.nsPerOp(), 1),
                  ResultTable::integer(
                      static_cast<std::uint64_t>(m.opsPerSec())),
                  speedup});
    }
    t.addNote("host wall-clock; every cell but the op counts varies "
              "run to run");
    report.add(t);
}

void
addTable(BenchReport &report, const std::string &title,
         const std::string &op_name, const Measurement &fast,
         const Measurement &slow)
{
    addTable(report, title, op_name, {{"fast", fast}, {"slow", slow}});
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    BenchReport report("dataplane", opt);

    const std::uint32_t reps = opt.smoke ? 4 : 24;
    const std::uint32_t eraseReps = opt.smoke ? 16 : 128;
    const std::uint64_t cleans = opt.smoke ? 8 : 64;

    const std::string bankGeom =
        ResultTable::integer(bankPageSize) + " B pages x " +
        ResultTable::integer(bankBlockBytes) + " pages/segment";

    addTable(report, "BM_PageProgram: bank program (" + bankGeom + ")",
             "pages",
             {{"fast", runProgram(false, reps)},
              {"persist", runProgramPersist(reps)},
              {"slow", runProgram(true, reps)}});
    addTable(report, "BM_PageRead: bank wide-path read (" + bankGeom +
                     ")",
             "pages", runRead(false, reps), runRead(true, reps));
    addTable(report, "BM_SegmentErase: bank erase (" + bankGeom + ")",
             "erases", runErase(false, eraseReps),
             runErase(true, eraseReps));
    addTable(report,
             "BM_SegmentClean: whole-stack FIFO cleans "
             "(tiny geometry, functional)",
             "cleans", runClean(false, cleans), runClean(true, cleans));
    return report.finish();
}

/**
 * @file
 * Ablations of the two §3.2/§3.3 sizing decisions the paper argues
 * qualitatively:
 *
 *  1. Page size.  "Larger pages lead to a smaller page table and
 *     lower SRAM requirements.  On the other hand, since an entire
 *     page has to be written to Flash with every flush, larger pages
 *     cause more unmodified data to be written for every word
 *     changed."  The sweep runs the TPC-A shape at several page
 *     sizes and reports both sides: page-table SRAM per GB and the
 *     flash bytes programmed per byte the host actually wrote.
 *
 *  2. Write-buffer size.  "The ability to retain pages in SRAM for
 *     some time helps to reduce traffic to the Flash array since
 *     multiple writes to the same page do not require additional
 *     copy-on-write operations."  The sweep shows the flush rate per
 *     transaction collapsing as the buffer grows to hold the hot
 *     teller/branch working set (the paper chose one segment's
 *     worth, 16 MB).
 */

#include <functional>

#include "envysim/experiment.hh"
#include "envysim/parallel.hh"
#include "envysim/system.hh"
#include "workload/tpca.hh"

using namespace envy;

namespace {

/** Drive the TPC-A write stream through a functional-path store. */
struct Outcome
{
    double flushesPerTxn;
    double amplification; //!< flash bytes programmed / bytes written
    double bufferHitRate;
};

Outcome
runShape(std::uint32_t page_size, std::uint32_t buffer_pages,
         std::uint64_t txns)
{
    EnvyConfig cfg;
    cfg.geom.pageSize = page_size;
    cfg.geom.blockBytes = 16 * KiB / (page_size / 64); // ~fixed segs
    cfg.geom.blocksPerChip = 8;
    cfg.geom.numBanks = 4;
    cfg.geom.writeBufferPages = buffer_pages;
    cfg.storeData = false;
    cfg.policy = PolicyKind::Hybrid;
    cfg.partitionSize = 8;
    cfg.placement = Controller::Placement::Aged;
    cfg.agedStride = 8;
    EnvyStore store(cfg);

    TpcaConfig tpc = TpcaConfig::forStoreBytes(store.size());
    TpcaWorkload workload(tpc, 7);

    Controller &ctl = store.controller();
    std::vector<StorageAccess> txn;
    std::uint64_t bytes_written = 0;
    for (std::uint64_t i = 0; i < txns; ++i) {
        workload.nextTransaction(txn);
        for (const StorageAccess &a : txn) {
            if (!a.isWrite)
                continue;
            std::uint8_t word[8] = {};
            ctl.write(a.addr, {word, a.bytes});
            bytes_written += a.bytes;
        }
    }

    Outcome o;
    const double flushes =
        static_cast<double>(store.writeBuffer().metFlushes.value());
    o.flushesPerTxn = flushes / static_cast<double>(txns);
    o.amplification = flushes * page_size /
                      static_cast<double>(bytes_written);
    const double writes = static_cast<double>(
        ctl.metHostWrites.value());
    o.bufferHitRate =
        static_cast<double>(ctl.metBufferHits.value()) / writes;
    return o;
}

std::vector<Outcome>
runShapes(const BenchOptions &opt,
          std::vector<std::function<Outcome()>> tasks)
{
    return parallelMap<Outcome>(opt.jobs, std::move(tasks));
}

void
pageSizeSweep(const BenchOptions &opt, BenchReport &report)
{
    std::vector<std::uint32_t> sizes = {64, 128, 256, 512, 1024};
    if (opt.smoke)
        sizes = {64, 256};
    const std::uint64_t txns = opt.smoke ? 8000 : 40000;

    std::vector<std::function<Outcome()>> tasks;
    for (const std::uint32_t ps : sizes)
        tasks.push_back([=] { return runShape(ps, 2048, txns); });
    const std::vector<Outcome> outcomes =
        runShapes(opt, std::move(tasks));

    ResultTable t("Ablation: page size (paper §3.3 chose 256 "
                  "bytes)");
    t.setColumns({"page size", "PT SRAM / GB flash",
                  "flash bytes per written byte",
                  "flushes per txn"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint32_t ps = sizes[i];
        // 6-byte entries per page: table bytes per GB of flash.
        const double pt_mb_per_gb =
            (double(GiB) / ps) * 6.0 / double(MiB);
        t.addRow({ResultTable::integer(ps) + " B",
                  ResultTable::num(pt_mb_per_gb, 1) + " MB",
                  ResultTable::num(outcomes[i].amplification, 1),
                  ResultTable::num(outcomes[i].flushesPerTxn, 2)});
    }
    t.addNote("paper: 256 B costs 24 MB of SRAM per GB (~10% of "
              "system cost) while keeping the write amplification "
              "tolerable");
    report.add(t);
}

void
bufferSizeSweep(const BenchOptions &opt, BenchReport &report)
{
    std::vector<std::uint32_t> sizes = {16, 64, 256, 1024, 4096,
                                        16384};
    if (opt.smoke)
        sizes = {16, 1024};
    const std::uint64_t txns = opt.smoke ? 8000 : 40000;

    std::vector<std::function<Outcome()>> tasks;
    for (const std::uint32_t pages : sizes)
        tasks.push_back([=] { return runShape(256, pages, txns); });
    const std::vector<Outcome> outcomes =
        runShapes(opt, std::move(tasks));

    ResultTable t("Ablation: write-buffer size (paper §3.2/Fig 12 "
                  "chose one segment = 64Ki pages)");
    t.setColumns({"buffer pages", "flushes per txn",
                  "buffer hit rate"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        t.addRow({ResultTable::integer(sizes[i]),
                  ResultTable::num(outcomes[i].flushesPerTxn, 2),
                  ResultTable::percent(outcomes[i].bufferHitRate,
                                       1)});
    }
    t.addNote("once the buffer holds the teller/branch working set, "
              "only the uniformly random account page per "
              "transaction still flushes (~1 page/txn, §5.5's "
              "10,376 pages/s at 10 kTPS)");
    report.add(t);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    BenchReport report("ablation_tradeoffs", opt);
    pageSizeSweep(opt, report);
    bufferSizeSweep(opt, report);
    return report.finish();
}

/**
 * @file
 * Endurance: writing a store to death, the §2/§4.3/§5.5 story end
 * to end.
 *
 * §2: flash "failure" means an operation overran its specified
 * window — data stays readable.  §4.3: without leveling, a hot
 * region concentrates erases on a couple of physical segments and
 * the array goes out of spec early; with leveling the whole array
 * wears together.  §5.5: lifetime = write capacity / page write
 * rate, where the write rate includes the cleaning overhead.
 *
 * This harness runs a deliberately fragile device (few rated
 * cycles, aggressive wear-induced slow-down) under a hot workload
 * until the first chip goes out of spec, with wear leveling on and
 * off, and checks the measured life against the §5.5 formula.
 */

#include <functional>

#include "envysim/experiment.hh"
#include "envysim/parallel.hh"
#include "envysim/system.hh"
#include "sim/random.hh"

using namespace envy;

namespace {

struct EnduranceResult
{
    std::uint64_t hostWrites = 0;
    std::uint64_t pagesFlushed = 0;
    std::uint64_t erases = 0;
    std::uint64_t wearSpread = 0;
    double cleaningCost = 0.0;
};

EnduranceResult
writeToDeath(bool leveling, std::uint64_t rated_cycles)
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 16;
    cfg.storeData = false;
    cfg.policy = PolicyKind::LocalityGathering;
    cfg.placement = Controller::Placement::Sequential;
    cfg.wearThreshold = leveling ? 16 : (1ull << 60);
    // The device overruns its specified erase window after
    // rated_cycles erases of any one block.
    cfg.timing.wearSlowdownPerCycle =
        1.0 / static_cast<double>(rated_cycles);
    cfg.timing.maxEraseTime =
        cfg.timing.eraseTime * 2; // 2x base = rated_cycles cycles
    EnvyStore store(cfg);

    const std::uint32_t ps = cfg.geom.pageSize;
    const std::uint64_t pages = store.size() / ps;
    Rng rng(11);
    EnduranceResult r;
    while (!store.flash().outOfSpec() &&
           r.hostWrites < 100000000ull) {
        // Every write lands in 2% of the pages — no cold traffic at
        // all, so nothing but the §4.3 swap ever touches the cold
        // segments' physical homes.  This is the worst case for
        // wear: without leveling, the hot segment and the rotating
        // reserve absorb every erase.
        const std::uint64_t page = rng.below(pages / 50);
        std::uint8_t b = 0;
        store.controller().write(page * ps, {&b, 1});
        ++r.hostWrites;
    }
    r.pagesFlushed = store.writeBuffer().metFlushes.value();
    r.erases = store.flash().metErases.value();
    r.wearSpread = store.wearLeveler().spread(store.space());
    r.cleaningCost = store.cleaningCost();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    BenchReport report("endurance", opt);

    const std::uint64_t rated = 512; // cycles before out-of-spec

    // Both runs feed the cross-check table, so fan them out and
    // collect before building either table.
    std::vector<std::function<EnduranceResult()>> tasks;
    for (const bool leveling : {false, true})
        tasks.push_back([=] { return writeToDeath(leveling, rated); });
    const std::vector<EnduranceResult> results =
        parallelMap<EnduranceResult>(opt.jobs, std::move(tasks));

    ResultTable t("Endurance: writes until the first chip overruns "
                  "its spec (rated ~512 cycles, all writes to 2% of pages)");
    t.setColumns({"wear leveling", "host writes", "pages flushed",
                  "segment erases", "final wear spread",
                  "cleaning cost"});
    for (std::size_t i = 0; i < 2; ++i) {
        const EnduranceResult &r = results[i];
        t.addRow({i == 1 ? "on (threshold 16)" : "off",
                  ResultTable::integer(r.hostWrites),
                  ResultTable::integer(r.pagesFlushed),
                  ResultTable::integer(r.erases),
                  ResultTable::integer(r.wearSpread),
                  ResultTable::num(r.cleaningCost, 2)});
    }
    t.addNote("§2: the failure is an out-of-spec operation; all "
              "data remains readable");
    report.add(t);

    // §5.5 cross-check: with even wear, life should approach the
    // write-capacity bound.
    const Geometry g = Geometry::tiny();
    const double capacity_erases =
        static_cast<double>(g.numSegments()) * rated;
    ResultTable c("Section 5.5 cross-check (erase budget)");
    c.setColumns({"quantity", "value"});
    c.addRow({"array erase budget (segments x rated)",
              ResultTable::num(capacity_erases, 0)});
    c.addRow({"erases consumed, leveling off",
              ResultTable::integer(results[0].erases)});
    c.addRow({"erases consumed, leveling on",
              ResultTable::integer(results[1].erases)});
    c.addRow({"budget used at death, leveling on",
              ResultTable::percent(
                  static_cast<double>(results[1].erases) /
                      static_cast<double>(capacity_erases), 0)});
    c.addRow({"life extension from leveling",
              ResultTable::num(
                  static_cast<double>(results[1].hostWrites) /
                      static_cast<double>(results[0].hostWrites),
                  1) + "x"});
    report.add(c);
    return report.finish();
}

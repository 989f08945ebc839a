#include "envysim/policy_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "envy/cleaner.hh"
#include "envy/mmu.hh"
#include "envy/page_table.hh"
#include "envy/segment_space.hh"
#include "envy/wear_leveler.hh"
#include "flash/flash_array.hh"
#include "sram/sram_array.hh"

namespace envy {

namespace {

Geometry
geometryFor(const PolicySimParams &p)
{
    Geometry g;
    g.pageSize = 8; // metadata-only: width is irrelevant, keep cheap
    g.blockBytes = static_cast<std::uint32_t>(p.pagesPerSegment);
    std::uint32_t bpc = 16;
    while (bpc > 1 && p.numSegments % bpc != 0)
        bpc /= 2;
    g.blocksPerChip = bpc;
    g.numBanks = p.numSegments / bpc;
    g.targetUtilization = p.utilization;
    return g;
}

} // namespace

PolicySimResult
runPolicySim(const PolicySimParams &params)
{
    const Geometry geom = geometryFor(params);
    if (const char *problem = geom.validate())
        ENVY_FATAL("sim: bad policy-sim geometry: ", problem);

    const std::uint64_t logical_pages =
        geom.effectiveLogicalPages().value();

    obs::MetricsRegistry metrics;
    FlashArray flash(geom, FlashTiming{}, false, &metrics);
    const std::uint64_t table_bytes =
        PageTable::bytesNeeded(geom.physicalPages().value());
    SramArray sram(table_bytes +
                   SegmentSpace::bytesNeeded(geom.numSegments()).value());
    PageTable table(sram, 0, geom.physicalPages().value());
    Mmu mmu(table, 1024);
    SegmentSpace space(flash, sram, table_bytes, &metrics);
    WearLeveler wear(params.wearThreshold, &metrics);
    Cleaner cleaner(space, mmu, &wear, &metrics);

    // Measured-window figures, published so bench JSON can embed a
    // snapshot that provably matches the printed table cells.
    obs::Gauge simCost = metrics.gauge(
        "sim.cleaning_cost", "programs/flush",
        "measured-window cleaning cost (the Fig 6 metric)");
    obs::Gauge simWrites = metrics.gauge(
        "sim.measured_writes", "pages",
        "host flushes inside the measurement window");
    obs::Gauge simCleans = metrics.gauge(
        "sim.measured_cleans", "cleans",
        "segment cleans inside the measurement window");

    auto policy = makePolicy(params.policy, params.partitionSize);
    policy->attach(space, cleaner);

    const std::uint32_t segs = space.numLogical();
    if (params.placement == PolicySimParams::Placement::Striped) {
        for (std::uint64_t p = 0; p < logical_pages; ++p) {
            const auto seg = static_cast<std::uint32_t>(p % segs);
            const FlashPageAddr addr =
                flash.appendPage(space.physOf(seg), LogicalPageId(p));
            mmu.mapToFlash(LogicalPageId(p), addr);
        }
    } else {
        // Sequential: an even share of consecutive logical pages per
        // segment, like a freshly loaded database.
        const std::uint64_t share = (logical_pages + segs - 1) / segs;
        for (std::uint64_t p = 0; p < logical_pages; ++p) {
            const auto seg = static_cast<std::uint32_t>(p / share);
            const FlashPageAddr addr =
                flash.appendPage(space.physOf(seg), LogicalPageId(p));
            mmu.mapToFlash(LogicalPageId(p), addr);
        }
    }

    BimodalWriteWorkload workload(logical_pages, params.locality,
                                  params.seed);
    std::uint64_t hot_offset = 0;

    // One write = copy-on-write plus immediate flush (§4 experiments
    // have no buffering concerns).  The optional hot-region rotation
    // models a workload whose locality moves over time.
    auto writeOnce = [&]() {
        const LogicalPageId page(
            (workload.nextPage().value() + hot_offset) %
            logical_pages);
        const PageTable::Location loc = mmu.lookup(page);
        ENVY_ASSERT(loc.kind == PageTable::LocKind::Flash,
                    "policy sim page not in flash");
        const std::uint32_t origin_seg =
            space.logOf(loc.flash.segment);
        const std::uint64_t origin = policy->originTag(origin_seg);
        flash.invalidatePage(loc.flash);
        const std::uint32_t dest = policy->flushDestination(origin);
        const FlashPageAddr addr =
            flash.appendPage(space.physOf(dest), page);
        mmu.mapToFlash(page, addr);
        space.noteFlush();
    };

    const std::uint64_t chunk =
        params.chunkWrites ? params.chunkWrites : logical_pages;

    // Steady state at high locality is reached on the *cold* data's
    // timescale: size the warmup for roughly two cold turnovers.
    std::uint32_t warmup = params.warmupChunks;
    if (warmup == 0) {
        const double cold_frac = 1.0 - params.locality.hotFraction;
        const double cold_access =
            std::max(1.0 - params.locality.hotAccess, 0.02);
        const double turnovers = 2.0 * cold_frac / cold_access;
        warmup = static_cast<std::uint32_t>(
            std::clamp(turnovers + 2.0, 4.0, 64.0));
    }
    std::uint32_t measure = params.measureChunks;
    if (measure == 0)
        measure = std::max<std::uint32_t>(2, warmup / 4);

    PolicySimResult result;
    for (std::uint32_t c = 0; c < warmup; ++c) {
        for (std::uint64_t i = 0; i < chunk; ++i)
            writeOnce();
        ++result.warmupChunksUsed;
    }
    result.warmupMetrics = metrics.snapshot();

    // Measurement window.
    const std::uint64_t programs0 = cleaner.metPagesCopied.value();
    const std::uint64_t flushes0 = space.flushClock();
    const std::uint64_t cleans0 = cleaner.metSegmentsCleaned.value();
    for (std::uint32_t c = 0; c < measure; ++c) {
        hot_offset = (hot_offset + params.shiftPerChunk) %
                     logical_pages;
        for (std::uint64_t i = 0; i < chunk; ++i)
            writeOnce();
    }

    const std::uint64_t programs =
        cleaner.metPagesCopied.value() - programs0;
    result.writes = space.flushClock() - flushes0;
    result.cleans = cleaner.metSegmentsCleaned.value() - cleans0;
    result.cleaningCost =
        result.writes
            ? static_cast<double>(programs) /
                  static_cast<double>(result.writes)
            : 0.0;
    result.avgCleanedUtilization =
        result.cleans ? static_cast<double>(programs) /
                            (static_cast<double>(result.cleans) *
                             asDouble(geom.pagesPerSegment()))
                      : 0.0;
    result.wearSpread = wear.spread(space);
    result.wearRotations = wear.metRotations.value();

    simCost.set(result.cleaningCost);
    simWrites.set(static_cast<double>(result.writes));
    simCleans.set(static_cast<double>(result.cleans));
    result.finalMetrics = metrics.snapshot();
    return result;
}

} // namespace envy

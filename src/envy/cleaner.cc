#include "envy/cleaner.hh"

#include "common/logging.hh"
#include "envy/wear_leveler.hh"
#include "faults/crash_point.hh"
#include "obs/trace.hh"

namespace envy {

constinit thread_local Tick Cleaner::tlBusy_ = 0;

namespace {

// Victim-liveness histogram buckets: powers of two up to the largest
// supported segment capacity (full-scale geometry is 64 Ki pages).
std::vector<std::uint64_t>
victimLiveEdges()
{
    std::vector<std::uint64_t> edges{0};
    for (std::uint64_t e = 1; e <= (1u << 16); e *= 2)
        edges.push_back(e);
    return edges;
}

} // namespace

Cleaner::Cleaner(SegmentSpace &space, Mmu &mmu,
                 WearLeveler *wear_leveler,
                 obs::MetricsRegistry *metrics)
    : space_(space),
      mmu_(mmu),
      wearLeveler_(wear_leveler),
      copyData_(space.flash().storesData())
{
    obs::MetricsRegistry &reg = obs::registryOr(metrics, ownMetrics_);
    metSegmentsCleaned = reg.counter("cleaner.segments_cleaned",
                                     "segments",
                                     "segment cleaning operations");
    metPagesCopied = reg.counter("cleaner.pages_copied", "pages",
                                 "page programs performed by the "
                                 "cleaner (diverts included)");
    metCleaningCost = reg.gauge("cleaner.cleaning_cost",
                                "programs/flush",
                                "cleaner programs per flushed page "
                                "(paper section 4.1), updated after "
                                "every clean");
    metVictimLive = reg.histogram("cleaner.victim_live", "pages",
                                  "live pages per cleaned victim",
                                  victimLiveEdges());
    if (copyData_)
        scratch_.resize(space_.flash().geom().pageSize);
}

void
Cleaner::relocate(SegmentId src_phys, SlotId slot,
                  LogicalPageId logical, SegmentId dst_phys)
{
    FlashArray &flash = space_.flash();
    const FlashPageAddr src{src_phys, slot};
    if (copyData_)
        flash.readPage(src, scratch_);
    const FlashPageAddr dst =
        flash.appendPage(dst_phys, logical, scratch_);
    ENVY_CRASH_POINT("cleaner.relocate.after_program");
    mmu_.mapToFlash(logical, dst);
    ENVY_CRASH_POINT("cleaner.relocate.after_map");
    flash.invalidatePage(src);
    ENVY_CRASH_POINT("cleaner.relocate.done");
    metPagesCopied.add();
    chargeBusy(flash.timing().readTime +
               flash.timing().programTimeAfter(
                   flash.eraseCycles(dst_phys)));
}

PageCount
Cleaner::moveShadows(SegmentId src, SegmentId dst)
{
    FlashArray &flash = space_.flash();
    std::vector<SlotId> &shadows = shadowScratch_;
    shadows.clear();
    flash.forEachShadow(src, [&](SlotId slot) {
        shadows.push_back(slot);
    });
    for (const SlotId slot : shadows) {
        const FlashPageAddr from{src, slot};
        if (copyData_)
            flash.readPage(from, scratch_);
        const FlashPageAddr to = flash.appendShadow(dst, scratch_);
        ENVY_CRASH_POINT("cleaner.shadow.after_program");
        flash.invalidatePage(from);
        metPagesCopied.add();
        chargeBusy(flash.timing().readTime +
                   flash.timing().programTime);
        if (shadowMoved)
            shadowMoved(from, to);
        ENVY_CRASH_POINT("cleaner.shadow.done");
    }
    return PageCount(shadows.size());
}

Cleaner::CleanResult
Cleaner::clean(std::uint32_t log_seg, CleaningPolicy *policy)
{
    CleanResult result;
    {
        MutexLock lock(mu_);
        result = cleanInternal(log_seg, policy, false);
    }
    // The completion callbacks re-enter the cleaner (onCleaned pulls
    // pages via movePages; a wear rotation runs moveAllPhysical), so
    // they must run after mu_ is released.
    if (policy)
        policy->onCleaned(log_seg);
    if (wearLeveler_)
        wearLeveler_->maybeRotate(space_, *this);
    return result;
}

Cleaner::CleanResult
Cleaner::resume(std::uint32_t log_seg)
{
    CleanResult result;
    {
        MutexLock lock(mu_);
        result = cleanInternal(log_seg, nullptr, true);
    }
    if (wearLeveler_)
        wearLeveler_->maybeRotate(space_, *this);
    return result;
}

Cleaner::CleanResult
Cleaner::cleanInternal(std::uint32_t log_seg, CleaningPolicy *policy,
                       bool resuming)
{
    FlashArray &flash = space_.flash();
    const SegmentId victim = space_.physOf(log_seg);
    const SegmentId dest = space_.reserve();
    if (!resuming) {
        ENVY_ASSERT(flash.usedSlots(dest) == PageCount(0),
                    "cleaner: reserve segment ", dest,
                    " is not erased");
    }

    space_.beginCleanRecord(log_seg, victim, dest);
    ENVY_CRASH_POINT("cleaner.clean.begin");

    CleanResult result;
    const Tick busy0 = busyTime_;
    const PageCount live_total = flash.liveCount(victim);

    ENVY_TRACE("cleaner.clean.start", obs::tv("logical", log_seg),
               obs::tv("victim", victim.value()),
               obs::tv("dest", dest.value()),
               obs::tv("live", live_total.value()),
               obs::tv("capacity", space_.segmentCapacity().value()),
               obs::tv("resuming", resuming));

    // Collect the live slots first: relocation mutates the segment's
    // owner table as it invalidates source pages.
    std::vector<std::pair<SlotId, LogicalPageId>> &live = liveScratch_;
    live.clear();
    live.reserve(live_total.value());
    flash.forEachLive(victim,
                      [&](SlotId slot, LogicalPageId logical) {
                          live.emplace_back(slot, logical);
                      });

    for (std::uint64_t idx = 0; idx < live.size(); ++idx) {
        const auto [slot, logical] = live[idx];
        std::uint32_t target = log_seg;
        if (policy)
            target = policy->divert(log_seg, idx, live_total);
        SegmentId dst = dest;
        if (target != log_seg) {
            const SegmentId other = space_.physOf(target);
            if (flash.freeSlots(other) > PageCount(0)) {
                dst = other;
                result.diverted += PageCount(1);
            } else {
                target = log_seg; // divert target full; keep the page
            }
        }
        if (target == log_seg)
            result.copied += PageCount(1);
        relocate(victim, slot, logical, dst);
    }

    // Carry transaction shadow copies (§6) along to the new segment.
    result.copied += moveShadows(victim, dest);

    ENVY_CRASH_POINT("cleaner.clean.before_erase");
    // On resume the victim may already have been erased just before
    // the crash; do not burn a second cycle on it.
    if (!(resuming && flash.usedSlots(victim) == PageCount(0)))
        chargeBusy(flash.eraseSegment(victim));
    ENVY_CRASH_POINT("cleaner.clean.after_erase");
    result.busyTime = busyTime_ - busy0;
    space_.commitClean(log_seg);
    ENVY_CRASH_POINT("cleaner.clean.after_commit");
    space_.noteClean(log_seg);
    space_.clearCleanRecord();
    metSegmentsCleaned.add();
    metVictimLive.record(live_total.value());
    metCleaningCost.set(cleaningCost());
    ENVY_TRACE("cleaner.clean.end", obs::tv("logical", log_seg),
               obs::tv("copied", result.copied.value()),
               obs::tv("diverted", result.diverted.value()),
               obs::tv("ticks", result.busyTime));
    return result;
}

PageCount
Cleaner::movePages(std::uint32_t from, std::uint32_t to, bool from_tail,
                   PageCount count)
{
    MutexLock lock(mu_);
    ENVY_ASSERT(from != to, "cleaner: moving pages to the same segment");
    FlashArray &flash = space_.flash();
    const SegmentId src = space_.physOf(from);
    const SegmentId dst = space_.physOf(to);

    count = std::min({count, flash.liveCount(src),
                      flash.freeSlots(dst)});
    if (count == PageCount(0))
        return PageCount(0);

    PageCount moved;
    const std::uint32_t used =
        static_cast<std::uint32_t>(flash.usedSlots(src).value());
    if (from_tail) {
        for (std::uint32_t i = used; i-- > 0 && moved < count;) {
            const FlashPageAddr addr{src, SlotId(i)};
            const LogicalPageId owner = flash.pageOwner(addr);
            if (!owner.valid())
                continue;
            relocate(src, SlotId(i), owner, dst);
            moved += PageCount(1);
        }
    } else {
        for (std::uint32_t i = 0; i < used && moved < count; ++i) {
            const FlashPageAddr addr{src, SlotId(i)};
            const LogicalPageId owner = flash.pageOwner(addr);
            if (!owner.valid())
                continue;
            relocate(src, SlotId(i), owner, dst);
            moved += PageCount(1);
        }
    }
    return moved;
}

PageCount
Cleaner::moveAllPhysical(SegmentId src, SegmentId dst)
{
    MutexLock lock(mu_);
    FlashArray &flash = space_.flash();
    std::vector<std::pair<SlotId, LogicalPageId>> &live = liveScratch_;
    live.clear();
    flash.forEachLive(src, [&](SlotId slot, LogicalPageId p) {
        live.emplace_back(slot, p);
    });
    for (const auto &[slot, logical] : live)
        relocate(src, slot, logical, dst);
    const PageCount moved(live.size());
    return moved + moveShadows(src, dst);
}

double
Cleaner::cleaningCost() const
{
    const std::uint64_t flushed = space_.flushClock();
    if (flushed == 0)
        return 0.0;
    return static_cast<double>(metPagesCopied.value()) /
           static_cast<double>(flushed);
}

} // namespace envy

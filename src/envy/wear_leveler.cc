#include "envy/wear_leveler.hh"

#include "common/logging.hh"
#include "envy/cleaner.hh"
#include "envy/segment_space.hh"
#include "faults/crash_point.hh"
#include "obs/trace.hh"

namespace envy {

WearLeveler::WearLeveler(std::uint64_t threshold,
                         obs::MetricsRegistry *metrics)
    : threshold_(threshold)
{
    obs::MetricsRegistry &reg = obs::registryOr(metrics, ownMetrics_);
    metRotations = reg.counter("wear.rotations", "rotations",
                               "oldest/youngest data rotations");
    metSpread = reg.gauge("wear.spread", "cycles",
                          "max-min erase-cycle spread over data "
                          "segments, sampled at each trigger check");
}

std::uint64_t
WearLeveler::spread(const SegmentSpace &space) const
{
    const FlashArray &flash = space.flash();
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::uint32_t l = 0; l < space.numLogical(); ++l) {
        const std::uint64_t c = flash.eraseCycles(space.physOf(l));
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    return hi - lo;
}

bool
WearLeveler::maybeRotate(SegmentSpace &space, Cleaner &cleaner)
{
    MutexLock lock(mu_);
    if (busy_)
        return false;

    FlashArray &flash = space.flash();
    if (lastRotation_.size() < flash.numSegments())
        lastRotation_.assign(flash.numSegments(), 0);

    // The oldest *eligible* segment: one that has aged a further
    // threshold since it last took part in a rotation (see header).
    std::uint32_t oldest = 0, youngest = 0;
    std::uint64_t lo = ~0ull, hi = 0, true_hi = 0;
    bool have_oldest = false;
    for (std::uint32_t l = 0; l < space.numLogical(); ++l) {
        const SegmentId phys = space.physOf(l);
        const std::uint64_t c = flash.eraseCycles(phys);
        true_hi = std::max(true_hi, c);
        const bool eligible =
            c >= lastRotation_[phys.value()] + threshold_;
        if (eligible && (!have_oldest || c > hi)) {
            hi = c;
            oldest = l;
            have_oldest = true;
        }
        if (c < lo) {
            lo = c;
            youngest = l;
        }
    }
    // `hi` only tracks eligible segments; the gauge wants the true
    // spread, which the same pass already saw.
    metSpread.set(static_cast<double>(true_hi - lo));
    if (!have_oldest || hi - lo <= threshold_ || oldest == youngest)
        return false;

    busy_ = true;
    // Rotation through the reserve (see file comment in the header):
    //   1. data of `oldest` (hot)  -> reserve
    //   2. data of `youngest` (cold) -> oldest's worn home
    //   3. youngest's old home becomes the new reserve
    // The persistent wear record stages the progress: a power
    // failure at any point leaves enough state for resumeRotation()
    // to finish the job.
    const SegmentId physOld = space.physOf(oldest);
    const SegmentId physYoung = space.physOf(youngest);
    const SegmentId fresh = space.reserve();
    FlashArray &fa = space.flash();

    space.beginWearRecord(oldest, youngest, physOld, physYoung, fresh);
    ENVY_CRASH_POINT("wear.rotate.begin");
    cleaner.moveAllPhysical(physOld, fresh);
    ENVY_CRASH_POINT("wear.rotate.after_first_move");
    fa.eraseSegment(physOld);
    ENVY_CRASH_POINT("wear.rotate.after_first_erase");
    space.advanceWearRecord(2);
    cleaner.moveAllPhysical(physYoung, physOld);
    ENVY_CRASH_POINT("wear.rotate.after_second_move");
    fa.eraseSegment(physYoung);
    ENVY_CRASH_POINT("wear.rotate.after_second_erase");
    space.rotateForWear(oldest, youngest);
    ENVY_CRASH_POINT("wear.rotate.after_commit");
    space.clearWearRecord();

    finishRotation(space, physOld, physYoung, fresh);
    return true;
}

// Recovery replay: every stage is re-derived from the persistent wear
// record, so a crash inside it is recovered by running it again, and
// the page moves it repeats are cut by the cleaner.relocate.* points
// inside moveAllPhysical().
// envy-analyze: allow(crash-point-coverage) idempotent recovery replay
bool
WearLeveler::resumeRotation(SegmentSpace &space, Cleaner &cleaner)
{
    MutexLock lock(mu_);
    // A power failure wiped the in-core recursion guard with the
    // rest of the machine.
    busy_ = false;

    const SegmentSpace::WearRecord rec = space.wearRecord();
    if (rec.stage == 0)
        return false;

    FlashArray &fa = space.flash();
    if (lastRotation_.size() < fa.numSegments())
        lastRotation_.assign(fa.numSegments(), 0);
    const SegmentId physOld{rec.physOld};
    const SegmentId physYoung{rec.physYoung};
    const SegmentId fresh{rec.fresh};

    busy_ = true;
    if (rec.stage == 1) {
        // Finish moving hot's remaining pages onto the old reserve.
        cleaner.moveAllPhysical(physOld, fresh);
        if (fa.usedSlots(physOld) > PageCount(0))
            fa.eraseSegment(physOld);
        space.advanceWearRecord(2);
    }
    // Stage 2: cold's data moves onto the worn segment and the
    // naming commit follows — unless the commit already happened
    // (crash between rotateForWear and clearWearRecord),
    // recognisable because hot already lives on fresh.
    if (space.physOf(rec.hot) != rec.fresh) {
        cleaner.moveAllPhysical(physYoung, physOld);
        if (fa.usedSlots(physYoung) > PageCount(0))
            fa.eraseSegment(physYoung);
        space.rotateForWear(rec.hot, rec.cold);
    }
    space.clearWearRecord();

    finishRotation(space, physOld, physYoung, fresh);
    return true;
}

void
WearLeveler::finishRotation(SegmentSpace &space, SegmentId phys_old,
                            SegmentId phys_young, SegmentId fresh)
{
    // Every participant waits out a full threshold of further wear
    // before rotating again.
    const FlashArray &fa = space.flash();
    lastRotation_[phys_old.value()] = fa.eraseCycles(phys_old);
    lastRotation_[phys_young.value()] = fa.eraseCycles(phys_young);
    lastRotation_[fresh.value()] = fa.eraseCycles(fresh);

    metRotations.add();
    ENVY_TRACE("wear.rotate", obs::tv("phys_old", phys_old.value()),
               obs::tv("phys_young", phys_young.value()),
               obs::tv("fresh", fresh.value()),
               obs::tv("spread", spread(space)));
    busy_ = false;
}

} // namespace envy

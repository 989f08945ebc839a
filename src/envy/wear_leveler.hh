/**
 * @file
 * Even-wear enforcement (paper §4.3).
 *
 * Locality gathering deliberately cleans hot segments far more often
 * than cold ones, so physical erase counts would diverge without
 * intervention.  eNVy tracks program/erase cycles per segment and,
 * "when the oldest segment gets over 100 cycles older than the
 * youngest, a cleaning operation is initiated that swaps the data in
 * the two areas."
 *
 * The swap is implemented as a rotation through the reserve: the hot
 * logical segment (living on the most-worn physical segment) moves to
 * the current reserve, the cold logical segment moves onto the worn
 * physical segment, and the cold segment's old home becomes the new
 * reserve.  Two segment copies instead of three, same wear effect.
 */

#ifndef ENVY_ENVY_WEAR_LEVELER_HH
#define ENVY_ENVY_WEAR_LEVELER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace envy {

class Cleaner;
class SegmentSpace;

class WearLeveler
{
  public:
    /**
     * @param threshold  trigger when max-min erase-cycle spread
     *                   exceeds this (paper: 100)
     */
    explicit WearLeveler(std::uint64_t threshold = 100,
                         obs::MetricsRegistry *metrics = nullptr);

    std::uint64_t threshold() const { return threshold_; }

    /**
     * Called by the Cleaner after every erase.  If the wear spread
     * exceeds the threshold, rotates the most- and least-worn data
     * segments through the reserve.  The rotation's progress is
     * staged through the persistent wear record in SegmentSpace so a
     * power failure at any instant leaves a resumable state.
     *
     * @return true if a rotation was performed.
     */
    bool maybeRotate(SegmentSpace &space, Cleaner &cleaner);

    /**
     * Finish a rotation a power failure interrupted (recovery path;
     * a no-op when no wear record is pending).
     *
     * @return true if a rotation was resumed.
     */
    bool resumeRotation(SegmentSpace &space, Cleaner &cleaner);

    /** Current max-min spread of erase cycles over data segments. */
    std::uint64_t spread(const SegmentSpace &space) const;

    // Event counts (docs/OBSERVABILITY.md); a private registry holds
    // them when the leveler is built without one.
    obs::Counter metRotations;
    obs::Gauge metSpread; //!< erase-cycle spread at each trigger check

  private:
    /** Shared epilogue of a fresh and a resumed rotation. */
    void finishRotation(SegmentSpace &space, SegmentId phys_old,
                        SegmentId phys_young, SegmentId fresh)
        ENVY_REQUIRES(mu_);

    std::uint64_t threshold_;

    // Guards the rotation state.  Sits between Controller and Cleaner
    // in the lock order: a rotation calls cleaner.moveAllPhysical()
    // with mu_ held, so the cleaner must never call into the wear
    // leveler while holding its own lock (clean()/resume() run
    // maybeRotate after releasing it).
    mutable Mutex mu_;
    //!< rotation itself erases; avoid recursion
    bool busy_ ENVY_GUARDED_BY(mu_) = false;
    /**
     * Cycle count of each physical segment at its last rotation.
     * Parking cold data on a worn segment does not reduce its cycle
     * count, so a plain spread comparison would re-fire on the same
     * segment forever; a segment only becomes eligible again after
     * aging a further threshold's worth of erases.
     */
    std::vector<std::uint64_t> lastRotation_ ENVY_GUARDED_BY(mu_);

    std::unique_ptr<obs::MetricsRegistry> ownMetrics_;
};

} // namespace envy

#endif // ENVY_ENVY_WEAR_LEVELER_HH

/**
 * @file
 * Shared cleaning mechanics (paper §3.4, Fig 5).
 *
 * Cleaning copies the live pages of a victim segment, in slot order,
 * into the reserved erased segment, updates the page table as each
 * page lands, then erases the victim — which becomes the new reserve.
 * Policies parameterise the process through divert(): individual live
 * pages can be sent to *other* segments instead, which is how locality
 * gathering and the hybrid scheme redistribute data (§4.3, §4.4).
 *
 * The cleaning cost of §4.1 is cleaner program operations per flushed
 * page; this class owns the program-side counters and SegmentSpace
 * owns the flush clock.
 */

#ifndef ENVY_ENVY_CLEANER_HH
#define ENVY_ENVY_CLEANER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.hh"
#include "envy/mmu.hh"
#include "envy/policy/cleaning_policy.hh"
#include "envy/segment_space.hh"

namespace envy {

class WearLeveler;

class Cleaner
{
  public:
    struct CleanResult
    {
        PageCount copied;   //!< programs into the new segment
        PageCount diverted; //!< programs into other segments
        Tick busyTime = 0;  //!< device time consumed
    };

    Cleaner(SegmentSpace &space, Mmu &mmu,
            WearLeveler *wear_leveler = nullptr,
            obs::MetricsRegistry *metrics = nullptr);

    /**
     * Clean logical segment @p log_seg.  @p policy (may be null) steers
     * per-page diverts and is notified on completion.
     */
    CleanResult clean(std::uint32_t log_seg, CleaningPolicy *policy);

    /**
     * Finish a clean that a power failure interrupted: the reserve
     * already holds the pages relocated before the crash, so the
     * erased-reserve precondition is waived and no policy diverts
     * apply.
     */
    CleanResult resume(std::uint32_t log_seg);

    /**
     * Relocate up to @p count live pages from the head (coldest) or
     * tail (hottest) of @p from into @p to's free space.  Used by
     * pull-style redistribution and by the wear leveler.
     *
     * @return pages actually moved.
     */
    PageCount movePages(std::uint32_t from, std::uint32_t to,
                        bool from_tail, PageCount count);

    /**
     * Move every live page and shadow of *physical* segment @p src
     * into @p dst (wear-leveling rotations and their crash recovery;
     * the segments need not have logical identities yet).
     *
     * @return pages moved.
     */
    PageCount moveAllPhysical(SegmentId src, SegmentId dst);

    /** Cleaning cost so far: cleaner programs / pages flushed. */
    double cleaningCost() const;

    /** Device time consumed by cleaning + erasing since reset. */
    Tick busyTime() const
    {
        MutexLock lock(mu_);
        return busyTime_;
    }

    /**
     * Device time this *thread* has spent cleaning since process
     * start.  Single-threaded the delta across a call equals the
     * busyTime() delta; with background cleaners it attributes inline
     * cleaning to the flushing thread and background cleaning to the
     * pool, so the controller's flush-latency accounting does not
     * absorb another thread's work (PR 8).
     */
    static Tick threadBusyTime() { return tlBusy_; }

    /**
     * Invoked whenever a shadow copy (§6 transactions) is relocated
     * so its owner can re-point at the new slot.
     */
    std::function<void(FlashPageAddr from, FlashPageAddr to)>
        shadowMoved;

    // Event counts (docs/OBSERVABILITY.md); a private registry holds
    // them when the cleaner is built without one, so cleaningCost()
    // always has its numerator.
    obs::Counter metSegmentsCleaned;
    obs::Counter metPagesCopied;   //!< cleaner programs, diverts included
    obs::Gauge metCleaningCost;    //!< cleaningCost() after each clean
    obs::Histogram metVictimLive;  //!< live pages per cleaned victim

    SegmentSpace &space() { return space_; }
    Mmu &mmu() { return mmu_; }

  private:
    CleanResult cleanInternal(std::uint32_t log_seg,
                              CleaningPolicy *policy, bool resuming)
        ENVY_REQUIRES(mu_);

    /** Relocate one live page; updates map and invalidates source. */
    void relocate(SegmentId src_phys, SlotId slot,
                  LogicalPageId logical, SegmentId dst_phys)
        ENVY_REQUIRES(mu_);

    /** Carry every shadow of @p src into @p dst; returns count. */
    PageCount moveShadows(SegmentId src, SegmentId dst)
        ENVY_REQUIRES(mu_);

    SegmentSpace &space_;
    Mmu &mmu_;
    WearLeveler *wearLeveler_;
    /** Cached storesData() so metadata-only runs skip the dead
     *  read/copy path without re-asking the array per page. */
    bool copyData_;

    // Guards the per-clean work lists and the busy-time clock.  The
    // policy onCleaned()/wear-rotation callbacks re-enter the cleaner
    // through movePages()/moveAllPhysical(), so clean()/resume() run
    // them only after this lock is released.
    mutable Mutex mu_;
    std::vector<std::uint8_t> scratch_ ENVY_GUARDED_BY(mu_);
    /** Reused per-clean work lists: cleaning is the hot path of every
     *  long-running experiment, so the live/shadow snapshots must not
     *  allocate per call.  Not reentrant — relocate() never cleans. */
    std::vector<std::pair<SlotId, LogicalPageId>>
        liveScratch_ ENVY_GUARDED_BY(mu_);
    std::vector<SlotId> shadowScratch_ ENVY_GUARDED_BY(mu_);
    Tick busyTime_ ENVY_GUARDED_BY(mu_) = 0;

    /** Per-thread slice of busyTime_ (see threadBusyTime()). */
    void chargeBusy(Tick t) ENVY_REQUIRES(mu_)
    {
        busyTime_ += t;
        tlBusy_ += t;
    }
    static constinit thread_local Tick tlBusy_;

    std::unique_ptr<obs::MetricsRegistry> ownMetrics_;
};

} // namespace envy

#endif // ENVY_ENVY_CLEANER_HH

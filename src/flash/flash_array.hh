/**
 * @file
 * The whole Flash array: banks, segments and per-page bookkeeping.
 *
 * The array is append-only within a segment: slots [0, writePtr) of a
 * segment hold data (valid or invalidated), the rest are erased and
 * writable.  This matches the paper's cleaning mechanics (Fig 5):
 * cleaning copies the live pages of a victim, in order, to the head of
 * an empty segment, and new flushes append behind them.
 *
 * Each physical page slot records the logical page that owns it (the
 * reverse mapping the cleaner needs to update the page table when it
 * relocates data).  Actual cell contents live in the chips and are
 * optional: metadata-only mode lets the 2 GB-geometry experiments run
 * without 2 GB of host RAM while exercising identical state machines.
 */

#ifndef ENVY_FLASH_FLASH_ARRAY_HH
#define ENVY_FLASH_FLASH_ARRAY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/geometry.hh"
#include "common/types.hh"
#include "flash/flash_bank.hh"
#include "obs/metrics.hh"

namespace envy {

namespace persist {
struct FlashPersist;
} // namespace persist

class FlashArray
{
  public:
    /**
     * @param metrics         registry for the flash.* counters; a
     *                        private one when null
     * @param slow_dataplane  route all page operations through the
     *                        byte-at-a-time CUI oracle instead of the
     *                        bulk fast path.  Also forced on by the
     *                        ENVY_SLOW_DATAPLANE environment variable
     *                        (any value but "0").
     * @param persist         optional durable backing: segment
     *                        metadata is written through to the store
     *                        file and (in functional mode) cell data
     *                        lives in its mapped data region
     */
    FlashArray(const Geometry &geom, const FlashTiming &timing,
               bool store_data, obs::MetricsRegistry *metrics = nullptr,
               bool slow_dataplane = false,
               persist::FlashPersist *persist = nullptr);

    const Geometry &geom() const { return geom_; }
    const FlashTiming &timing() const { return timing_; }
    bool storesData() const { return storeData_; }
    bool slowDataplane() const { return slowDataplane_; }

    /** Erase blocks with a backing buffer, across all banks (the
     *  sparse store's memory footprint is proportional to this). */
    std::uint64_t materializedBlocks() const;

    std::uint64_t numSegments() const { return geom_.numSegments(); }
    PageCount pagesPerSegment() const
    {
        return geom_.pagesPerSegment();
    }

    // ---- page-level operations ----------------------------------

    /**
     * Program the next free slot of @p seg with @p logical's data.
     * @p data may be empty in metadata-only mode.
     *
     * A program spec-failure (wear overrun or injected fault) retires
     * the failing slot and retries the next one transparently; use
     * tryAppendPage() to observe individual failures.
     *
     * @return address of the slot that was written.
     */
    FlashPageAddr appendPage(SegmentId seg, LogicalPageId logical,
                             std::span<const std::uint8_t> data = {});

    /** Outcome of a single (fallible) program attempt. */
    struct AppendResult
    {
        FlashPageAddr addr{}; //!< valid only when !failed
        bool failed = false;  //!< slot spec-failed and was retired
    };

    /**
     * One program attempt into the next free slot of @p seg.  On a
     * spec-failure (the §5.1 parallel status check reports a program
     * error from a wear overrun or an injected fault) the slot is
     * retired — marked permanently unusable, surviving erase — and
     * the caller retries, usually into the next slot.
     */
    AppendResult tryAppendPage(SegmentId seg, LogicalPageId logical,
                               std::span<const std::uint8_t> data = {});

    /** Mark a previously valid slot dead (copy-on-write, Fig 3). */
    void invalidatePage(FlashPageAddr addr);

    // ---- shadow pages (§6 atomic-transaction extension) ----------
    //
    // A shadow is a superseded page copy that must survive cleaning
    // so a transaction can roll back to it.  Shadows count as live
    // (they occupy space and the cleaner must relocate them) but have
    // no logical owner.

    /** Turn a live slot into a shadow (copy-on-write under a txn). */
    void convertToShadow(FlashPageAddr addr);

    /** Program a relocated shadow into the next free slot of @p seg. */
    FlashPageAddr appendShadow(SegmentId seg,
                               std::span<const std::uint8_t> data = {});

    /** True if the slot holds a pinned shadow copy. */
    bool pageIsShadow(FlashPageAddr addr) const;

    /** Visit the shadow slots of a segment in slot order. */
    void forEachShadow(
        SegmentId seg,
        const std::function<void(SlotId slot)> &fn) const;

    /** Read a page through the wide path (functional mode). */
    void readPage(FlashPageAddr addr, std::span<std::uint8_t> out);

    /** Owner of a slot; invalid id if the slot is dead or erased. */
    LogicalPageId pageOwner(FlashPageAddr addr) const;

    /** True if the slot holds live data. */
    bool pageLive(FlashPageAddr addr) const;

    // ---- segment-level operations -------------------------------

    /** Free (erased, writable) slots remaining in a segment. */
    PageCount freeSlots(SegmentId seg) const;

    /** Live (valid) pages in a segment. */
    PageCount liveCount(SegmentId seg) const;

    /** Dead (invalidated) pages in a segment. */
    PageCount invalidCount(SegmentId seg) const;

    /** Used slots (valid + dead) in a segment. */
    PageCount usedSlots(SegmentId seg) const;

    /** Utilization of the segment: live / capacity. */
    double utilization(SegmentId seg) const;

    /** Erase cycles the segment has consumed. */
    std::uint64_t eraseCycles(SegmentId seg) const;

    /**
     * Erase a segment.  All pages must already be dead: erasing live
     * data is a cleaner bug.
     *
     * @return device busy time.
     */
    Tick eraseSegment(SegmentId seg);

    /**
     * Visit the live pages of a segment in slot order (the order the
     * cleaner preserves, §4.3).  @p fn may not mutate the segment.
     */
    void forEachLive(
        SegmentId seg,
        const std::function<void(SlotId slot,
                                 LogicalPageId)> &fn) const;

    /** Any chip out of spec (operations overran their rated window)? */
    bool outOfSpec() const;

    /**
     * Observer: invoked after any operation that changes a segment's
     * free/live/invalid counts (append, invalidate, erase, slot
     * retirement).  SegmentSpace uses it to maintain incremental
     * per-segment indexes so the cleaning policies can pick victims
     * and destinations without O(numSegments) rescans.
     */
    std::function<void(SegmentId)> segmentChangedHook;

    // ---- fault injection & block retirement ----------------------

    /**
     * Test hooks: consulted before every program (erase).  Returning
     * true injects a spec-failure into the operation, exercising the
     * same retire/retry path a natural wear overrun takes.
     */
    std::function<bool(SegmentId, SlotId slot)> programFaultHook;
    std::function<bool(SegmentId)> eraseFaultHook;

    /** True if the slot has been retired (spec-failed program). */
    bool slotRetired(FlashPageAddr addr) const;

    /** Retired slots in a segment (they survive erase). */
    PageCount retiredCount(SegmentId seg) const;

    /**
     * Retire the slot at the segment's write pointer without
     * programming it (image restoration of prior retirements).
     */
    void retireNextSlot(SegmentId seg);

    /**
     * Re-mark an erased slot beyond the write pointer as retired
     * (image restoration of a retirement that survived an erase).
     */
    void restoreRetiredAhead(SegmentId seg, SlotId slot);

    /** True if any chip spec-failed an operation on this segment. */
    bool segmentSpecFailed(SegmentId seg) const;

    /** Segments whose erase block has spec-failed on any chip. */
    std::vector<SegmentId> specFailedSegments() const;

    /**
     * Restore a segment's erase-cycle count (image loading only):
     * sets the segment counter and the matching block counter in
     * every chip of the owning bank.
     */
    void restoreWear(SegmentId seg, std::uint64_t cycles);

    /**
     * Rebuild all segment state (write pointers, owners, retired
     * marks, wear, spec-fail latches) from the persistent store file
     * after a restart, and scrub any cells programmed ahead of the
     * recorded write pointers back to 0xFF.  Requires a persist
     * backing; does not fire segmentChangedHook (SegmentSpace
     * re-indexes during recovery).
     */
    void restoreFromPersist();

    /** Direct bank access for the timing model / tests. */
    FlashBank &bank(BankId i) { return banks_[i.value()]; }
    const FlashBank &bank(BankId i) const { return banks_[i.value()]; }

    /** Total live pages across the array. */
    PageCount totalLive() const { return totalLive_; }

    // Event counts (docs/OBSERVABILITY.md), public so experiment
    // harnesses can read them.
    obs::Counter metPrograms;
    obs::Counter metInvalidations;
    obs::Counter metErases;       //!< eraseSegment() calls
    obs::Counter metPageReads;
    /** One per program spec-failure: each retires its slot. */
    obs::Counter metSlotsRetired;
    obs::Counter metEraseRetries; //!< extra attempts after a bad erase
    obs::Counter metEraseSpecFailures;

  private:
    struct SegmentState
    {
        /** Owner per used slot; ownerDead marks invalidated pages. */
        std::vector<std::uint32_t> owner;
        /** Spec-failed slots; physical damage, survives erase. */
        std::vector<bool> retired;
        std::uint32_t writePtr = 0;
        std::uint32_t live = 0;
        std::uint32_t retiredTotal = 0; //!< retired slots, whole segment
        std::uint32_t retiredAhead = 0; //!< retired in [writePtr, cap)
        std::uint64_t eraseCycles = 0;
    };

    static constexpr std::uint32_t ownerDead = 0xFFFFFFFFu;
    static constexpr std::uint32_t ownerShadow = 0xFFFFFFFEu;

    FlashPageAddr appendRaw(SegmentId seg, std::uint32_t owner,
                            std::span<const std::uint8_t> data);
    AppendResult tryAppendRaw(SegmentId seg, std::uint32_t owner,
                              std::span<const std::uint8_t> data);
    void retireCurrentSlot(SegmentId seg, SegmentState &s);

    SegmentState &state(SegmentId seg);
    const SegmentState &state(SegmentId seg) const;

    Geometry geom_;
    FlashTiming timing_;
    bool storeData_;
    bool slowDataplane_;
    std::deque<FlashBank> banks_; //!< deque: FlashBank is immovable
    std::vector<SegmentState> segments_;
    PageCount totalLive_;
    persist::FlashPersist *persist_ = nullptr;
    std::unique_ptr<obs::MetricsRegistry> ownMetrics_;
};

} // namespace envy

#endif // ENVY_FLASH_FLASH_ARRAY_HH

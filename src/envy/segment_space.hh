/**
 * @file
 * Logical/physical segment identity, the erased reserve, and the
 * per-segment clocks the cleaning policies feed on.
 *
 * eNVy always keeps one segment fully erased so a clean can start
 * immediately (§3.4).  When logical segment L is cleaned, its live
 * pages move into the reserve; the reserve becomes L's new physical
 * home and L's old, now empty, physical segment becomes the new
 * reserve.  The physOf table, the reserve pointer and the
 * clean-in-progress record are persisted in battery-backed SRAM so the
 * controller "can recover quickly after a failure" (§3.4).
 */

#ifndef ENVY_ENVY_SEGMENT_SPACE_HH
#define ENVY_ENVY_SEGMENT_SPACE_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "flash/flash_array.hh"
#include "obs/metrics.hh"
#include "sram/sram_array.hh"

namespace envy {

class SegmentSpace
{
  public:
    /**
     * @param flash  the flash array (must be fully erased at start)
     * @param sram   battery-backed SRAM for the persistent state
     * @param base   byte offset of that state inside @p sram
     */
    SegmentSpace(FlashArray &flash, SramArray &sram, Addr base,
                 obs::MetricsRegistry *metrics = nullptr);
    ~SegmentSpace();

    SegmentSpace(const SegmentSpace &) = delete;
    SegmentSpace &operator=(const SegmentSpace &) = delete;

    /** SRAM bytes needed for @p num_segments segments. */
    static ByteCount bytesNeeded(std::uint64_t num_segments);

    /** Data segments; one physical segment is always the reserve. */
    std::uint32_t numLogical() const { return numLogical_; }

    PageCount segmentCapacity() const
    {
        return flash_.pagesPerSegment();
    }

    SegmentId physOf(std::uint32_t logical) const;
    /** Logical owner of a physical segment; invalid for the reserve. */
    std::uint32_t logOf(SegmentId phys) const;
    SegmentId reserve() const
    {
        MutexLock lock(mu_);
        return reserve_;
    }
    static constexpr std::uint32_t noLogical = 0xFFFFFFFFu;

    // Convenience queries in logical-segment terms.
    PageCount freeSlots(std::uint32_t logical) const;
    PageCount liveCount(std::uint32_t logical) const;
    PageCount invalidCount(std::uint32_t logical) const;
    double utilization(std::uint32_t logical) const;

    // ---- incremental indexes -------------------------------------
    //
    // Maintained via FlashArray::segmentChangedHook so the cleaning
    // policies answer "roomiest segment / best victim / room in a
    // partition" in O(log n) instead of rescanning every logical
    // segment per flush.  Tie-breaking reproduces the historical
    // serial scans exactly (see each query's doc comment); a property
    // test cross-checks the indexes against full rescans.

    /** Largest freeSlots() over all logical segments. */
    PageCount maxFreeSlots() const;

    /**
     * FIRST logical segment with the maximum freeSlots() — the index
     * a forward scan keeping strictly-greater values would settle on
     * (segment 0 when every segment is full).
     */
    std::uint32_t roomiestLogical() const;

    /**
     * LAST logical segment with the maximum invalidCount() — the
     * index a forward scan keeping greater-or-equal values would
     * settle on (the last segment when nothing is invalid).
     */
    std::uint32_t mostInvalidLogical() const;

    /** Sum of freeSlots() over logical segments [first, end). */
    PageCount freeInRange(std::uint32_t first, std::uint32_t end) const;

    /** Sum of liveCount() over logical segments [first, end). */
    PageCount liveInRange(std::uint32_t first, std::uint32_t end) const;

    /**
     * Smallest logical segment in [first, end) with freeSlots() > 0;
     * noLogical when the whole range is full.
     */
    std::uint32_t firstWithFreeInRange(std::uint32_t first,
                                       std::uint32_t end) const;

    /**
     * Nearest logical segment strictly beyond @p from in direction
     * @p dir (+1/-1) with freeSlots() > 1 — i.e. a spare slot beyond
     * the one its own flush traffic needs.  Returns @p from itself
     * when no such segment exists in that direction.
     */
    std::uint32_t nearestWithSpareFree(std::uint32_t from,
                                       int dir) const;

    /**
     * Commit a completed clean: @p logical now lives in what was the
     * reserve; its old physical segment becomes the reserve.
     */
    void commitClean(std::uint32_t logical);

    /**
     * Swap the physical homes of two logical segments through the
     * reserve (wear-leveling, §4.3).  @p a lands on the old reserve,
     * @p b on @p a's old home, and @p b's old home becomes reserve.
     */
    void rotateForWear(std::uint32_t a, std::uint32_t b);

    // ---- policy clocks -------------------------------------------

    /** Advances once per page flushed from the write buffer. */
    std::uint64_t flushClock() const
    {
        MutexLock lock(mu_);
        return flushClock_;
    }

    void
    noteFlush()
    {
        MutexLock lock(mu_);
        ++flushClock_;
        metFlushes.add();
    }

    std::uint64_t cleanCount(std::uint32_t logical) const;
    std::uint64_t lastCleanClock(std::uint32_t logical) const;
    void noteClean(std::uint32_t logical);

    // ---- crash recovery ------------------------------------------

    struct CleanRecord
    {
        bool inProgress = false;
        std::uint32_t logical = 0;
        SegmentId victimPhys;
        SegmentId destPhys;
    };

    /** Persist the record before the first page of a clean moves. */
    void beginCleanRecord(std::uint32_t logical, SegmentId victim,
                          SegmentId dest);
    /** Clear the record once the clean has fully committed. */
    void clearCleanRecord();
    CleanRecord cleanRecord() const;

    /**
     * Persistent record of an in-flight wear-leveling rotation
     * (§4.3).  The rotation moves data twice through the reserve, so
     * — unlike a clean — it has two windows in which live pages sit
     * on segments the naming commit has not blessed yet.  The stage
     * field tells recovery how far the rotation got:
     *
     *   1  moving `hot`'s data from physOld onto fresh (the reserve)
     *   2  physOld erased; moving `cold`'s data onto it
     *
     * The naming rewire (rotateForWear) and clearWearRecord() bracket
     * the commit; recovery distinguishes "committed but record not
     * yet cleared" by checking whether physOf(hot) already equals
     * fresh.
     */
    struct WearRecord
    {
        std::uint32_t stage = 0; //!< 0 = no rotation in flight
        std::uint32_t hot = 0;   //!< logical segment being demoted
        std::uint32_t cold = 0;  //!< logical segment being promoted
        SegmentId physOld;
        SegmentId physYoung;
        SegmentId fresh;
    };

    /** Persist stage 1 before the first page of a rotation moves. */
    void beginWearRecord(std::uint32_t hot, std::uint32_t cold,
                         SegmentId phys_old, SegmentId phys_young,
                         SegmentId fresh);
    /** Advance the persisted stage (after the first erase). */
    void advanceWearRecord(std::uint32_t stage);
    /** Clear the record once the rotation has fully committed. */
    void clearWearRecord();
    WearRecord wearRecord() const;

    /** Rebuild in-core mirrors from SRAM after a power failure. */
    void recover();

    FlashArray &flash() { return flash_; }
    const FlashArray &flash() const { return flash_; }

  private:
    // SRAM header layout: 0 reserve, 4 cleanInProgress, 8 cleanLogical,
    // 12 victimPhys, 16 destPhys, 20 wearStage, 24 wearHot, 28 wearCold,
    // 32 wearPhysOld, 36 wearPhysYoung, 40 wearFresh, 44 pad; the
    // physOf table follows.
    static constexpr Addr headerBytes = 48;

    Addr physOfAddr(std::uint32_t logical) const
    {
        return base_ + headerBytes + Addr(logical) * 4;
    }

    void persistAll() ENVY_REQUIRES(mu_);

    // ---- index maintenance ---------------------------------------
    //
    // Invariants (checked by the property test in
    // tests/test_segment_space.cc):
    //   freeOf_/invalidOf_/liveOf_[l] == the flash counts of
    //     physOf_[l];
    //   byFree_/byInvalid_ hold exactly one (count, l) pair per
    //     logical segment;
    //   freeBit_/liveBit_ prefix sums equal the cached counts;
    //   freePos_ = { l : freeOf_[l] > 0 },
    //   free2Pos_ = { l : freeOf_[l] > 1 }.
    // refreshIndex(l) re-reads the flash counts for l's physical
    // segment and applies the deltas; it is driven by the flash
    // array's segmentChangedHook plus explicit calls wherever the
    // logical->physical mapping itself is rewired.
    void installHook() ENVY_REQUIRES(mu_);
    void rebuildIndexes() ENVY_REQUIRES(mu_);
    void refreshIndex(std::uint32_t logical) ENVY_REQUIRES(mu_);

    void bitAdd(std::vector<std::int64_t> &bit, std::uint32_t i,
                std::int64_t delta) ENVY_REQUIRES(mu_);
    std::int64_t bitPrefix(const std::vector<std::int64_t> &bit,
                           std::uint32_t n) const ENVY_REQUIRES(mu_);

    FlashArray &flash_;
    SramArray &sram_;
    Addr base_;
    std::uint32_t numLogical_;

    // Guards the naming tables, indexes and policy clocks.  Lock
    // order (docs/STATIC_ANALYSIS.md §3): Controller -> WearLeveler
    // -> Cleaner -> SegmentSpace -> WriteBuffer; the flash
    // segmentChangedHook acquires this lock, so no method may mutate
    // flash while holding it.
    mutable Mutex mu_;

    // In-core mirrors (authoritative copies live in SRAM).
    std::vector<SegmentId> physOf_ ENVY_GUARDED_BY(mu_);
    std::vector<std::uint32_t> logOf_ ENVY_GUARDED_BY(mu_);
    SegmentId reserve_ ENVY_GUARDED_BY(mu_);

    // Incremental indexes (derived state; see refreshIndex).
    std::vector<std::uint64_t> freeOf_ ENVY_GUARDED_BY(mu_);
    std::vector<std::uint64_t> invalidOf_ ENVY_GUARDED_BY(mu_);
    std::vector<std::uint64_t> liveOf_ ENVY_GUARDED_BY(mu_);
    std::set<std::pair<std::uint64_t, std::uint32_t>>
        byFree_ ENVY_GUARDED_BY(mu_);
    std::set<std::pair<std::uint64_t, std::uint32_t>>
        byInvalid_ ENVY_GUARDED_BY(mu_);
    //!< Fenwick trees, 1-based
    std::vector<std::int64_t> freeBit_ ENVY_GUARDED_BY(mu_);
    std::vector<std::int64_t> liveBit_ ENVY_GUARDED_BY(mu_);
    //!< logicals with free > 0 / free > 1
    std::set<std::uint32_t> freePos_ ENVY_GUARDED_BY(mu_);
    std::set<std::uint32_t> free2Pos_ ENVY_GUARDED_BY(mu_);

    // Observability (docs/OBSERVABILITY.md): the flush clock as a
    // counter, so cleaning cost is computable from a snapshot alone.
    obs::Counter metFlushes;

    // Policy clocks (reconstructed, not persisted: heuristics only).
    std::uint64_t flushClock_ ENVY_GUARDED_BY(mu_) = 0;
    std::vector<std::uint64_t> cleanCount_ ENVY_GUARDED_BY(mu_);
    std::vector<std::uint64_t> lastCleanClock_ ENVY_GUARDED_BY(mu_);
};

} // namespace envy

#endif // ENVY_ENVY_SEGMENT_SPACE_HH

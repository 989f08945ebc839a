/**
 * @file
 * The battery-backed SRAM FIFO write buffer (paper §3.2).
 *
 * Copy-on-write lands the fresh copy of a page here; the page table is
 * swung to point at it, making the SRAM copy the only valid one.  The
 * buffer is a strict FIFO — "new pages are inserted at the head and
 * pages are flushed from the tail" — because anything fancier would be
 * hard to build in hardware.  Re-writes of a resident page update it
 * in place without moving it, which is what absorbs the hot TPC-A
 * teller/branch records and keeps the flush rate near one page per
 * transaction.
 *
 * All durable state (slot owners, origin tags, head/count) lives in
 * the provided SramArray region so that recovery can rebuild the
 * buffer after a power failure.  Because slots are only allocated at
 * the head and released at the tail, a ring layout gives every
 * resident page a stable slot index for the page table to reference.
 */

#ifndef ENVY_SRAM_WRITE_BUFFER_HH
#define ENVY_SRAM_WRITE_BUFFER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "obs/metrics.hh"
#include "sram/sram_array.hh"

namespace envy {

class WriteBuffer
{
  public:
    /**
     * @param sram        backing battery-backed SRAM
     * @param base        byte offset of this buffer's region in @p sram
     * @param capacity    page slots
     * @param page_size   bytes per page
     * @param store_data  false in metadata-only simulations
     * @param threshold   background flushing starts at this occupancy;
     *                    0 picks the default (capacity / 2)
     */
    WriteBuffer(SramArray &sram, Addr base, std::uint32_t capacity,
                std::uint32_t page_size, bool store_data,
                std::uint32_t threshold = 0,
                obs::MetricsRegistry *metrics = nullptr);

    /** Bytes of SRAM the buffer occupies (header + slots). */
    static std::uint64_t bytesNeeded(std::uint32_t capacity,
                                     std::uint32_t page_size,
                                     bool store_data);

    std::uint32_t capacity() const { return capacity_; }
    // Occupancy reads take no lock: count_ is published under mu_
    // and read here as a snapshot that may be stale by the time the
    // caller acts on it (callers recheck under their own locks).
    std::uint32_t size() const
    {
        return count_.load(std::memory_order_acquire);
    }
    bool empty() const { return size() == 0; }
    bool full() const { return size() == capacity_; }
    /** Occupancy at or above which background flushing should run. */
    bool aboveThreshold() const { return size() >= threshold_; }
    std::uint32_t threshold() const { return threshold_; }

    /**
     * Insert a page at the head.  The caller (controller) must make
     * room first if the buffer is full.
     *
     * @param logical  owning logical page
     * @param origin   policy tag: the flash segment the page was
     *                 copied from (locality gathering flushes it back
     *                 there; hybrid flushes back to its partition)
     * @return slot index for the page table to reference
     */
    BufferSlotId push(LogicalPageId logical, std::uint64_t origin);

    /** Oldest resident page (the next flush victim). */
    struct TailInfo
    {
        BufferSlotId slot;
        LogicalPageId logical;
        std::uint64_t origin;
    };
    TailInfo tail() const;

    /** Release the tail slot after its page has been flushed. */
    void popTail();

    /**
     * Page resident in @p slot, or an invalid id.  Lock-free: the
     * owner word is published under mu_, so a read outside the slot's
     * stripe is only a hint; callers that act on it revalidate under
     * slotStripe(slot) (see there).
     */
    LogicalPageId slotOwner(BufferSlotId slot) const;
    std::uint64_t slotOrigin(BufferSlotId slot) const;

    /**
     * Ring slot currently holding @p logical, or an invalid id if the
     * page is not resident.  O(1) via the logical-page -> ring-slot
     * map kept in lockstep with the FIFO.
     */
    BufferSlotId find(LogicalPageId logical) const;

    /** Page bytes of a resident slot (functional mode). */
    std::span<std::uint8_t> slotData(BufferSlotId slot);
    std::span<const std::uint8_t> slotData(BufferSlotId slot) const;

    /** True if @p slot currently holds a resident page. */
    bool slotResident(BufferSlotId slot) const;

    /**
     * Stripe lock guarding the *data* window of @p slot.  Concurrent
     * hit-writers and the flusher serialize one slot's page bytes
     * through this.  The FIFO metadata is written under mu_, but the
     * occupancy and owner words are read without it (size(),
     * slotOwner()).  Lock order: acquired after the controller's
     * shard/structural locks and before mu_ (docs/INTERNALS.md
     * lock-order table).  A writer must re-validate slotOwner(slot)
     * after taking the stripe: the flusher holds it across program +
     * map-swing + popTail, so an owner match under the stripe proves
     * the slot is still live.
     */
    Mutex &slotStripe(BufferSlotId slot)
    {
        return stripeMu_[slot.value() & (numStripes - 1)];
    }

    /**
     * Rebuild the in-core mirrors from SRAM after a power failure.
     * Only metadata is mirrored, so this re-reads the header.
     */
    void recover();

    /** Empty the buffer (recovery rebuilds it entry by entry). */
    void reset();

    // Event counts (docs/OBSERVABILITY.md); a private registry holds
    // them when the buffer is built without one.
    obs::Counter metInserts;
    obs::Counter metFlushes;
    obs::Gauge metOccupancy; //!< occupancy level; high() = high-water

  private:
    // SRAM layout: [head:4][count:4] then per-slot {owner:4, origin:4},
    // then page data.
    static constexpr Addr headOff = 0;
    static constexpr Addr countOff = 4;
    static constexpr Addr slotsOff = 8;
    static constexpr std::uint32_t noOwner = 0xFFFFFFFFu;

    Addr slotMetaAddr(std::uint32_t ring_slot) const
    {
        return base_ + slotsOff + Addr(ring_slot) * 8;
    }
    Addr slotDataAddr(std::uint32_t ring_slot) const
    {
        return dataBase_ + Addr(ring_slot) * pageSize_;
    }

    void syncHeader() ENVY_REQUIRES(mu_);
    std::uint32_t ownerLocked(std::uint32_t ring_slot) const
        ENVY_REQUIRES(mu_)
    {
        return owners_[ring_slot].load(std::memory_order_relaxed);
    }
    void setOwnerLocked(std::uint32_t ring_slot, std::uint32_t owner)
        ENVY_REQUIRES(mu_)
    {
        owners_[ring_slot].store(owner, std::memory_order_release);
    }
    void setCountLocked(std::uint32_t n) ENVY_REQUIRES(mu_)
    {
        count_.store(n, std::memory_order_release);
    }
    std::uint64_t slotOriginLocked(BufferSlotId slot) const
        ENVY_REQUIRES(mu_);

    SramArray &sram_;
    Addr base_;
    std::uint32_t capacity_;
    std::uint32_t pageSize_;
    bool storeData_;
    std::uint32_t threshold_;
    Addr dataBase_;

    // Guards the FIFO metadata below (docs/STATIC_ANALYSIS.md §3).
    // Slot *data* windows are not guarded: the page bytes belong to
    // the SRAM array and are raced only by design (data plane).
    mutable Mutex mu_;

    // In-core mirrors of the SRAM header (authoritative copy is SRAM).
    std::uint32_t head_ ENVY_GUARDED_BY(mu_) = 0; //!< next insertion
    //! Stored only under mu_; loaded anywhere (size()).
    std::atomic<std::uint32_t> count_{0};

    // In-core mirrors of the per-slot metadata, plus a logical-page ->
    // ring-slot map, all kept in lockstep with the FIFO so lookups
    // never walk the SRAM slot table.  recover() rebuilds them with
    // the one legitimate full scan.  owners_ words are stored only
    // under mu_ and loaded anywhere (slotOwner()).
    std::unique_ptr<std::atomic<std::uint32_t>[]> owners_;
    std::vector<std::uint32_t> origins_ ENVY_GUARDED_BY(mu_);

    // Residency map as a flat open-addressing table (copy-on-write
    // hits it on every host write, so it must not allocate per push
    // the way a node-based map does).  Entries hold a ring slot or
    // probeEmpty; the key of an occupied entry is ownerLocked(entry).
    // Power-of-two size >= 2 * capacity keeps probes short; erase
    // uses backward-shift deletion so chains stay contiguous.
    static constexpr std::uint32_t probeEmpty = 0xFFFFFFFFu;
    std::uint32_t probeHome(std::uint32_t key) const
    {
        return static_cast<std::uint32_t>(
                   (std::uint64_t(key) * 0x9E3779B97F4A7C15ull) >> 32) &
               probeMask_;
    }
    void mapInsert(std::uint32_t key, std::uint32_t ring_slot)
        ENVY_REQUIRES(mu_);
    void mapErase(std::uint32_t key) ENVY_REQUIRES(mu_);
    std::uint32_t mapFind(std::uint32_t key) const ENVY_REQUIRES(mu_);

    std::vector<std::uint32_t> probe_ ENVY_GUARDED_BY(mu_);
    std::uint32_t probeMask_ = 0;

    // Data stripe locks (see slotStripe()).
    static constexpr std::uint32_t numStripes = 64;
    std::array<Mutex, numStripes> stripeMu_;

    std::unique_ptr<obs::MetricsRegistry> ownMetrics_;
};

} // namespace envy

#endif // ENVY_SRAM_WRITE_BUFFER_HH

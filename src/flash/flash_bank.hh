/**
 * @file
 * A bank of byte-wide Flash chips with a page-wide data path.
 *
 * Following §3.3 / Figure 4 of the paper, a bank gangs `pageSize`
 * chips side by side so that one memory cycle moves a whole page
 * (byte j of the page lives in chip j).  The smallest independently
 * erasable unit of a bank is one erase block across every chip — a
 * *segment*.  Page p of the segment built from block b is byte
 * (b * blockBytes + p) of each chip.
 *
 * Cell contents live in a shared, page-major BankPageStore so a bank
 * page is one contiguous range.  programPage/readPage/eraseSegment
 * have bulk fast paths that perform one wear/timing computation and
 * one contiguous copy per page instead of pageSize per-chip CUI
 * round trips; the original byte-at-a-time sequences are retained
 * (slow_dataplane ctor flag, or the ENVY_SLOW_DATAPLANE environment
 * variable via FlashArray) as the differential-test oracle.  Both
 * paths are bit-exact: same data, wear, status registers and
 * spec-failure latching.
 */

#ifndef ENVY_FLASH_FLASH_BANK_HH
#define ENVY_FLASH_FLASH_BANK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flash/flash_chip.hh"
#include "flash/page_store.hh"

namespace envy {

class FlashBank
{
  public:
    /**
     * @param chips_per_bank  width of the data path in bytes
     * @param block_bytes     erase-block bytes per chip (= pages per
     *                        segment)
     * @param blocks_per_chip segments hosted by this bank
     * @param timing          chip timing parameters
     * @param store_data      functional (true) or metadata-only mode
     * @param slow_dataplane  route page operations through the
     *                        byte-at-a-time CUI oracle
     * @param metrics         optional registry for the backing
     *                        store's materialization counters
     * @param backing         optional durable home for the bank's
     *                        cell data (persist::BankBacking)
     */
    FlashBank(std::uint32_t chips_per_bank, std::uint32_t block_bytes,
              std::uint32_t blocks_per_chip, const FlashTiming &timing,
              bool store_data, bool slow_dataplane = false,
              obs::MetricsRegistry *metrics = nullptr,
              persist::BankBacking *backing = nullptr);

    std::uint32_t pageSize() const { return chipsPerBank_; }
    std::uint32_t pagesPerSegment() const { return blockBytes_; }
    std::uint32_t segments() const { return blocksPerChip_; }
    bool storesData() const { return storeData_; }
    bool slowDataplane() const { return slowDataplane_; }

    /** Erase blocks currently backed by a buffer (sparse store). */
    std::uint64_t materializedBlocks() const
    {
        return store_ ? store_->materializedBlocks() : 0;
    }

    /**
     * Read byte offset @p page_off of local segment @p block
     * through the wide
     * path: one cycle, one byte per chip.
     */
    Tick readPage(std::uint32_t block, std::uint32_t page_off,
                  std::span<std::uint8_t> out) const;

    /**
     * Program a whole page: every chip programs its byte in parallel,
     * so the operation takes one (wear-adjusted) program time, not
     * pageSize of them.  The controller checks all chips' status in
     * parallel (§5.1).
     *
     * @return time the bank is busy.
     */
    Tick programPage(std::uint32_t block, std::uint32_t page_off,
                     std::span<const std::uint8_t> data);

    /**
     * Erase local segment @p block (the same block in every chip, all
     * in parallel).
     *
     * @return time the bank is busy.
     */
    Tick eraseSegment(std::uint32_t block);

    /** Parallel status check across all chips (§5.1). */
    bool allReady() const;

    /** Parallel status check: no chip flagged a program error. */
    bool allProgrammedOk() const;

    /** Parallel status check: no chip flagged an erase error. */
    bool allErasedOk() const;

    /** ClearStatus on every chip (after handling a failure). */
    void clearStatus();

    /** True if any chip exceeded its specified operation window. */
    bool outOfSpec() const;

    /** True if any chip spec-failed an operation on @p block. */
    bool blockSpecFailed(std::uint32_t block) const;

    /** Blocks on which any chip has spec-failed, ascending. */
    std::vector<std::uint32_t> specFailedBlocks() const;

    /** Wear of local segment @p block (cycles, same on all chips). */
    std::uint64_t segmentCycles(std::uint32_t block) const;

    /**
     * Restart repair: re-erase cells of local segment @p block beyond
     * page @p from_page (see BankPageStore::scrubTail).  No-op in
     * metadata-only mode.
     */
    void scrubTail(std::uint32_t block, std::uint32_t from_page)
    {
        if (store_)
            store_->scrubTail(block, from_page);
    }

    FlashChip &chip(std::uint32_t i)
    {
        // Arbitrary CUI access may leave this lane in any mode, so
        // the lockstep cache cannot survive it; the next bulk
        // operation revalidates with one full scan.
        lanesLockstep_.store(false, std::memory_order_relaxed);
        return chips_[i];
    }
    const FlashChip &chip(std::uint32_t i) const { return chips_[i]; }

  private:
    /**
     * True iff every chip is lockstep-idle (read-array mode, clean
     * status).  In that state programPage's per-lane mode reset and
     * the parallel status checks are all no-ops, so the bulk paths
     * skip their pageSize-wide chip walks — the dominant cost of a
     * page program once the data movement itself is one memcpy.
     * Lazily revalidated: cleared pessimistically by anything that
     * can perturb a lane (external chip() access, latched errors,
     * ClearStatus), re-established by one scan on the next query.
     * Mutating bank operations are serialized by their callers, but
     * page reads are not: concurrent host readers run readPage()
     * side by side (the controller's structural lock is held shared),
     * and each may re-establish the cache.  So the cache is a relaxed
     * atomic; every writer of it stores a value the lanes justify at
     * that moment, and the lanes themselves only change under the
     * callers' exclusion.  Never consulted in slow-dataplane mode,
     * where per-chip CUI sequences mutate lanes without telling the
     * bank.
     */
    bool lanesLockstep() const
    {
        if (slowDataplane_)
            return false;
        if (lanesLockstep_.load(std::memory_order_relaxed))
            return true;
        for (const auto &c : chips_) {
            if (!c.lockstepIdle())
                return false;
        }
        lanesLockstep_.store(true, std::memory_order_relaxed);
        return true;
    }
    std::uint64_t byteAddr(std::uint32_t block, std::uint32_t page_off) const
    {
        return std::uint64_t(block) * blockBytes_ + page_off;
    }

    Tick programPageSlow(std::uint32_t block, std::uint32_t page_off,
                         std::span<const std::uint8_t> data);
    Tick readPageSlow(std::uint32_t block, std::uint32_t page_off,
                      std::span<std::uint8_t> out) const;
    Tick eraseSegmentSlow(std::uint32_t block);

    std::uint32_t chipsPerBank_;
    std::uint32_t blockBytes_;
    std::uint32_t blocksPerChip_;
    bool storeData_;
    bool slowDataplane_;
    FlashTiming timing_;
    std::unique_ptr<BankPageStore> store_; //!< null in metadata mode
    std::vector<FlashChip> chips_;
    //! Cached "every lane is lockstep-idle"; see lanesLockstep().
    mutable std::atomic<bool> lanesLockstep_{false};
};

} // namespace envy

#endif // ENVY_FLASH_FLASH_BANK_HH

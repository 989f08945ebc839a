/**
 * @file
 * The eNVy controller's memory-management unit (paper §5.1).
 *
 * The MMU caches recently used page-table mappings so that most host
 * accesses avoid the SRAM table walk.  It is write-through: updates go
 * to the page table immediately and refresh the cached entry, matching
 * the hardware's "page table mapping is updated in parallel with the
 * data transfer" behaviour.
 */

#ifndef ENVY_ENVY_MMU_HH
#define ENVY_ENVY_MMU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hh"
#include "envy/page_table.hh"

namespace envy {

class Mmu
{
  public:
    /**
     * @param table     the backing page table
     * @param tlb_size  cached mappings (power of two, direct mapped)
     */
    Mmu(PageTable &table, std::uint32_t tlb_size = 1024);

    /**
     * Translate through the TLB, falling back to the page table.
     * @param tlb_miss  if non-null, set to true when the translation
     *                  missed the TLB and walked the table (timing
     *                  models charge the extra SRAM access); left
     *                  alone on a hit, so one flag can collect every
     *                  translation of a host access
     */
    PageTable::Location lookup(LogicalPageId page,
                               bool *tlb_miss = nullptr);

    /** Write-through update used by COW, flush and the cleaner. */
    void mapToFlash(LogicalPageId page, FlashPageAddr addr);
    void mapToSram(LogicalPageId page, BufferSlotId slot);

    /** Drop every cached mapping (recovery does this). */
    void flushTlb();

    PageTable &table() { return table_; }

  private:
    struct TlbEntry
    {
        LogicalPageId page; //!< invalid id marks an empty way
        PageTable::Location loc;
    };

    std::uint32_t indexOf(LogicalPageId page) const
    {
        return static_cast<std::uint32_t>(page.value()) & mask_;
    }

    /**
     * Stripe guarding one group of TLB ways and, transitively, the
     * page-table entries reached through them.  Keyed by TLB index so
     * two pages aliasing the same direct-mapped way always serialize;
     * pages in different stripes touch disjoint TLB ways and disjoint
     * 6-byte table entries.  Leaf locks: every public method acquires
     * and releases its stripe internally, so no lock-order edge ever
     * points out of the MMU (docs/INTERNALS.md lock-order table).
     */
    Mutex &stripeFor(LogicalPageId page)
    {
        return stripeMu_[indexOf(page) & (numStripes - 1)];
    }

    static constexpr std::uint32_t numStripes = 64;

    PageTable &table_;
    std::uint32_t mask_;
    std::vector<TlbEntry> tlb_;
    std::array<Mutex, numStripes> stripeMu_;
};

} // namespace envy

#endif // ENVY_ENVY_MMU_HH

#include "envy/mmu.hh"

#include "common/logging.hh"

namespace envy {

Mmu::Mmu(PageTable &table, std::uint32_t tlb_size)
    : table_(table),
      mask_(tlb_size - 1),
      tlb_(tlb_size)
{
    ENVY_ASSERT(tlb_size > 0 && (tlb_size & (tlb_size - 1)) == 0,
                "mmu: TLB size must be a power of two");
}

PageTable::Location
Mmu::lookup(LogicalPageId page, bool *tlb_miss)
{
    MutexLock lock(stripeFor(page));
    TlbEntry &e = tlb_[indexOf(page)];
    if (e.page == page)
        return e.loc;
    if (tlb_miss)
        *tlb_miss = true;
    e.page = page;
    e.loc = table_.lookup(page);
    return e.loc;
}

void
Mmu::mapToFlash(LogicalPageId page, FlashPageAddr addr)
{
    MutexLock lock(stripeFor(page));
    table_.mapToFlash(page, addr);
    TlbEntry &e = tlb_[indexOf(page)];
    e.page = page;
    e.loc.kind = PageTable::LocKind::Flash;
    e.loc.flash = addr;
}

void
Mmu::mapToSram(LogicalPageId page, BufferSlotId slot)
{
    MutexLock lock(stripeFor(page));
    table_.mapToSram(page, slot);
    TlbEntry &e = tlb_[indexOf(page)];
    e.page = page;
    e.loc.kind = PageTable::LocKind::Sram;
    e.loc.sramSlot = slot;
}

void
Mmu::flushTlb()
{
    // Recovery-time only (the store is quiesced), but sweep stripe by
    // stripe anyway so the method is safe to call concurrently.
    for (std::uint32_t s = 0; s < numStripes; ++s) {
        MutexLock lock(stripeMu_[s]);
        for (std::uint32_t i = s; i < tlb_.size(); i += numStripes)
            tlb_[i].page = LogicalPageId::invalid();
    }
}

} // namespace envy

// Near-miss fixture for crash-point-coverage: recovery.cc is not one
// of the four mutation files, so a page-table mutation without a
// crash point is not a finding here.  No findings expected.

namespace envy {

void
Recovery::keepBuffered(LogicalPageId page, BufferSlotId slot)
{
    mmu_.mapToSram(page, slot);
}

} // namespace envy

// Near-miss fixture for crash-point-coverage in a mutation file:
// every function here either declares a crash point or mutates
// nothing.  No findings expected.

#include "envy/cleaner.hh"

namespace envy {

void
Cleaner::relocateCovered(SegmentId dst, LogicalPageId page)
{
    const FlashPageAddr to = flash_.appendPage(dst, page, scratch_);
    ENVY_CRASH_POINT("fixture.relocate.after_program");
    mmu_.mapToFlash(page, to);
}

// A crash point in a lambda the function runs is still inside its
// body.
void
Cleaner::eraseCovered(SegmentId victim)
{
    auto cut = [] { ENVY_CRASH_POINT("fixture.erase.before"); };
    cut();
    flash_.eraseSegment(victim);
}

// Reads only: appendPage() and eraseSegment() in this comment and in
// the string below are not calls.
PageCount
Cleaner::liveIn(SegmentId victim) const
{
    note("appendPage(victim) would be a mutation");
    return flash_.liveSlots(victim);
}

} // namespace envy

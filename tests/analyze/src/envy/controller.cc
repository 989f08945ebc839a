// Firing fixture for crash-point-coverage at its real path, one of
// the four mutation files: a controller function that programs flash
// and remaps a page with no crash point between, so the crash
// explorer can never cut that window.  The file is wrapped in
// `namespace envy {` like the real one: a walk that takes every
// column-zero brace for a function body sees one "function" here,
// the namespace, finds the crash point of flushCovered() in it and
// misses flushUncovered().
//
// expect-finding: crash-point-coverage

#include "envy/controller.hh"

namespace envy {

void
Controller::flushUncovered(LogicalPageId page)
{
    const FlashPageAddr addr = flash_.appendPage(tail_, page, data_);
    mmu_.mapToFlash(page, addr);
}

void
Controller::flushCovered(LogicalPageId page)
{
    const FlashPageAddr addr = flash_.appendPage(tail_, page, data_);
    ENVY_CRASH_POINT("fixture.flush.after_program");
    mmu_.mapToFlash(page, addr);
}

// Near-miss: mutation delegated to covered helpers (cleaner.cc) is
// not a mutation of this function.
void
Controller::cleanOne(SegmentId victim, SegmentId dst, LogicalPageId page)
{
    cleaner_.relocateCovered(dst, page);
    cleaner_.eraseCovered(victim);
}

} // namespace envy

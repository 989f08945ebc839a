// Firing fixture for crash-point-unique and crash-point-registered:
// one name declared at two sites (a crash at that name no longer
// says which window was cut), and one name missing from the
// inventory in src/faults/crash_point.cc.
//
// expect-finding: crash-point-unique
// expect-finding: crash-point-registered

namespace envy {

void
Controller::twoWindows()
{
    ENVY_CRASH_POINT("fixture.twice");
    stepOne();
    ENVY_CRASH_POINT("fixture.twice");
}

void
Controller::unlisted()
{
    ENVY_CRASH_POINT("fixture.unlisted");
}

} // namespace envy

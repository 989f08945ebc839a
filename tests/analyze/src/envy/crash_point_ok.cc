// Near-miss fixture for the crash-point rules: the macro's own
// definition, a comment showing its use and a string quoting it
// declare nothing; one registered point used once is fine.  No
// findings expected.

#define ENVY_CRASH_POINT(name) ::envy::crash_points::hit(name)

/*
 * Usage:
 *     ENVY_CRASH_POINT("fixture.in_comment");
 */

namespace envy {

void
Controller::documented()
{
    describe("ENVY_CRASH_POINT(\"fixture.in_string\")");
    ENVY_CRASH_POINT("fixture.once");
}

} // namespace envy

// Near-miss fixture for the trace-event rules: the macro's own
// definition, a comment, a string and a non-literal name emit no
// checkable event; one registered event emitted once is fine.  No
// findings expected.

#define ENVY_TRACE(name, ...) ::envy::obs::trace::emit(name, __VA_ARGS__)

namespace envy {

// ENVY_TRACE("fixture.in_comment", obs::tv("n", 1)) is documentation.
void
Controller::traceOnce(const char *event, std::uint32_t n)
{
    describe("ENVY_TRACE(\"fixture.in_string\")");
    ENVY_TRACE(event, obs::tv("n", n));
    ENVY_TRACE("fixture.flush", obs::tv("n", n));
}

} // namespace envy

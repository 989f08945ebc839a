// Firing fixture for trace-event-unique and trace-event-registered:
// one event name emitted from two call sites (the trace can no
// longer say which one fired) and one name missing from the
// inventory in src/obs/trace.cc.
//
// expect-finding: trace-event-unique
// expect-finding: trace-event-registered

namespace envy {

void
Cleaner::traceTwice(std::uint32_t n)
{
    ENVY_TRACE("fixture.clean", obs::tv("n", n));
    ENVY_TRACE("fixture.clean", obs::tv("n", n + 1));
    ENVY_TRACE("fixture.unlisted", obs::tv("n", n));
}

} // namespace envy

// Firing fixture for no-naked-thread: a controller is not one of the
// thread-owning components, so it may not start threads itself.
//
// expect-finding: no-naked-thread
// expect-finding: no-naked-thread
// expect-finding: no-naked-thread

namespace envy {

void
Controller::startHelpers()
{
    std::thread flusher([this] { flushLoop(); });
    std::jthread scrubber([this] { scrubLoop(); });
    auto done = std::async(std::launch::async, [this] { cleanLoop(); });
    keep(flusher, scrubber, done);
}

} // namespace envy

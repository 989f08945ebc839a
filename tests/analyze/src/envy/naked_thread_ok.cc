// Near-miss fixture for no-naked-thread outside the exempt files:
// std::this_thread starts nothing, and neither do the words in a
// comment or a string.  No findings expected.

namespace envy {

void
Controller::yieldBriefly()
{
    // std::thread and std::async belong to the exempt files.
    std::this_thread::yield();
    describe("std::thread is for ParallelRunner");
}

} // namespace envy

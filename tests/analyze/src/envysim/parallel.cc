// Near-miss fixture for no-naked-thread at an exempt path:
// src/envysim/parallel.cc is one of the files allowed to own threads.
// No findings expected.

namespace envy {

void
ParallelRunner::start(unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back(std::thread([this] { workLoop(); }));
}

} // namespace envy

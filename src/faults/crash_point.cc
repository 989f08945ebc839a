#include "faults/crash_point.hh"

#include <algorithm>
#include <mutex>

namespace envy {
namespace crash_points {

namespace detail {
constinit thread_local CrashSink *sink = nullptr;
std::atomic<CrashSink *> globalSink{nullptr};
} // namespace detail

namespace {

/** Guards the registry: points register lazily from worker threads. */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::vector<std::string> &
registry()
{
    static std::vector<std::string> points = [] {
        // Canonical inventory of the crash points threaded through
        // the system.  The macro also registers dynamically, so a
        // point missing here still works — this list only guarantees
        // that allPoints() is complete before any code has run.
        return std::vector<std::string>{
            "ctl.cow.after_push",
            "ctl.cow.after_map",
            "ctl.cow.done",
            "ctl.flush.before_program",
            "ctl.flush.after_program_failure",
            "ctl.flush.after_program",
            "ctl.flush.after_map",
            "ctl.flush.done",
            "cleaner.clean.begin",
            "cleaner.relocate.after_program",
            "cleaner.relocate.after_map",
            "cleaner.relocate.done",
            "cleaner.shadow.after_program",
            "cleaner.shadow.done",
            "cleaner.clean.before_erase",
            "cleaner.clean.after_erase",
            "cleaner.clean.after_commit",
            "wear.rotate.begin",
            "wear.rotate.after_first_move",
            "wear.rotate.after_first_erase",
            "wear.rotate.after_second_move",
            "wear.rotate.after_second_erase",
            "wear.rotate.after_commit",
            "txn.commit.begin",
            "txn.commit.mid_release",
            "txn.abort.begin",
            "txn.abort.mid_restore",
            "persist.journal.after_flush",
            "persist.checkpoint.before_rename",
            "persist.checkpoint.after_rename",
        };
    }();
    return points;
}

} // namespace

const char *
registerPoint(const char *name)
{
    const std::lock_guard<std::mutex> lock(registryMutex());
    auto &points = registry();
    if (std::find(points.begin(), points.end(), name) == points.end())
        points.emplace_back(name);
    return name;
}

std::vector<std::string>
allPoints()
{
    std::vector<std::string> points;
    {
        const std::lock_guard<std::mutex> lock(registryMutex());
        points = registry();
    }
    std::sort(points.begin(), points.end());
    return points;
}

CrashSink *
setSink(CrashSink *sink)
{
    CrashSink *old = detail::sink;
    detail::sink = sink;
    return old;
}

CrashSink *
currentSink()
{
    return detail::sink;
}

CrashSink *
setGlobalSink(CrashSink *sink)
{
    return detail::globalSink.exchange(sink,
                                       std::memory_order_acq_rel);
}

} // namespace crash_points
} // namespace envy

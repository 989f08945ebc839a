// The fixture tree's trace-event inventory, in the shape of the real
// src/obs/trace.cc.  No findings expected.

#include <string>
#include <vector>

namespace envy {
namespace obs {

std::vector<std::string> &
registry()
{
    static std::vector<std::string> events = [] {
        return std::vector<std::string>{
            "fixture.clean", // emitted twice in trace_event_fire.cc
            "fixture.flush", // emitted once in trace_event_ok.cc
        };
    }();
    return events;
}

} // namespace obs
} // namespace envy

// The fixture tree's crash-point inventory, in the shape of the real
// src/faults/crash_point.cc: the string literals of the
// std::vector<std::string> initializer.  "fixture.ghost" is declared
// nowhere in the tree, so crash-point-reachable reports it here.
//
// expect-finding: crash-point-reachable

#include <string>
#include <vector>

namespace envy {
namespace crash_points {

std::vector<std::string> &
registry()
{
    static std::vector<std::string> points = [] {
        return std::vector<std::string>{
            "fixture.flush.after_program",
            "fixture.relocate.after_program",
            "fixture.erase.before",
            "fixture.twice",
            "fixture.once",
            "orphan.dead.point",
            "w.relocate.step",
            "ctl.fixture.done",
            "fixture.ghost",
        };
    }();
    return points;
}

} // namespace crash_points
} // namespace envy

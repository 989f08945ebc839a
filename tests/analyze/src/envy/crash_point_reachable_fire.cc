// Firing fixture: a crash point declared in a function no
// EnvyStore/Controller/ShadowManager entry point can reach.  (The
// inventory entry declared nowhere at all is reported in
// src/faults/crash_point.cc.)
//
// expect-finding: crash-point-reachable

#include <cstdint>

namespace envy {

class Orphan
{
  public:
    // Nothing calls this: the explorer can never cut here, so the
    // coverage the inventory promises is a lie.
    void deadHelper()
    {
        ENVY_CRASH_POINT("orphan.dead.point");
    }
};

class Controller
{
  public:
    void flushOne() { ticks_ += 1; }

  private:
    std::uint64_t ticks_ = 0;
};

} // namespace envy

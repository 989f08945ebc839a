// Near-miss fixture: crash points reached through a private helper,
// a virtual-looking policy hop, and a lambda body -- all fine.  No
// findings expected.

#include <cstdint>

namespace envy {

class Worker
{
  public:
    void relocate()
    {
        ENVY_CRASH_POINT("w.relocate.step");
    }
};

class Controller
{
  public:
    void flushOne() { doFlush(); }

  private:
    void doFlush()
    {
        auto hook = [this] { worker_.relocate(); };
        hook();
        ENVY_CRASH_POINT("ctl.fixture.done");
    }

    Worker worker_;
};

} // namespace envy

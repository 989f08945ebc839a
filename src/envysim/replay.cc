#include "envysim/replay.hh"

#include <algorithm>

#include "common/logging.hh"

namespace envy {

ReplayResult
replayTrace(EnvyStore &store, const Trace &trace)
{
    Controller &ctl = store.controller();
    const std::uint64_t size = store.size();
    ENVY_ASSERT(size > 0, "empty store");

    const obs::MetricsSnapshot before = store.metrics().snapshot();

    ReplayResult r;
    std::uint8_t buf[256];
    for (const StorageAccess &a : trace) {
        const std::uint16_t n = std::min<std::uint16_t>(
            a.bytes, static_cast<std::uint16_t>(sizeof(buf)));
        Addr addr = a.addr % size;
        if (addr + n > size)
            addr = size - n;
        if (a.isWrite) {
            std::fill_n(buf, n, static_cast<std::uint8_t>(a.addr));
            ctl.write(addr, {buf, n});
            ++r.writes;
        } else {
            ctl.read(addr, {buf, n});
            ++r.reads;
        }
    }

    const obs::MetricsSnapshot after = store.metrics().snapshot();
    r.cows = after.counterDelta(before, "ctl.cows");
    r.bufferHits = after.counterDelta(before, "ctl.buffer_hits");
    r.flushes = after.counterDelta(before, "buf.flushes");
    r.cleans = after.counterDelta(before, "cleaner.segments_cleaned");
    const std::uint64_t programs =
        after.counterDelta(before, "cleaner.pages_copied");
    r.cleaningCost =
        r.flushes ? static_cast<double>(programs) /
                        static_cast<double>(r.flushes)
                  : 0.0;
    return r;
}

} // namespace envy

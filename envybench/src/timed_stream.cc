#include "bench.hh"

#include <algorithm>
#include <cstring>

namespace envybench {

void
FrameTracker::feed(std::span<const std::uint8_t> bytes, std::int64_t ns,
                   std::vector<StampEvent> &out)
{
    std::size_t i = 0;
    while (i < bytes.size()) {
        if (headerHave_ < sizeof(header_)) {
            const std::size_t take = std::min(sizeof(header_) - headerHave_,
                                              bytes.size() - i);
            std::memcpy(header_ + headerHave_, bytes.data() + i, take);
            headerHave_ += take;
            i += take;
            if (headerHave_ < sizeof(header_))
                return;
            // Header layout: serve/protocol.hh (requestId at 4,
            // payloadLen at 12, little-endian).
            std::uint32_t len = 0;
            std::memcpy(&id_, header_ + 4, 8);
            std::memcpy(&len, header_ + 12, 4);
            payloadLeft_ = len;
        }
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(payloadLeft_, bytes.size() - i));
        payloadLeft_ -= take;
        i += take;
        if (payloadLeft_ != 0)
            return;
        out.push_back({id_, ns});
        headerHave_ = 0;
    }
}

TimedStream::TimedStream(envy::serve::ByteStreamPtr inner)
    : inner_(std::move(inner))
{
}

std::size_t
TimedStream::read(std::span<std::uint8_t> out, bool block)
{
    const std::size_t n = inner_->read(out, block);
    if (n > 0)
        readTracker_.feed(out.first(n), nowNs(), reads_);
    return n;
}

void
TimedStream::write(std::span<const std::uint8_t> in)
{
    writeTracker_.feed(in, nowNs(), writes_);
    inner_->write(in);
}

} // namespace envybench

#include "serve/protocol.hh"

#include <algorithm>

#include "common/logging.hh"

namespace envy {
namespace serve {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Get: return "get";
      case Op::Put: return "put";
      case Op::Del: return "del";
      case Op::Batch: return "batch";
      case Op::Stat: return "stat";
    }
    return "?";
}

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Ok: return "ok";
      case Status::NotFound: return "not_found";
      case Status::Shed: return "shed";
      case Status::Error: return "error";
      case Status::TooLarge: return "too_large";
    }
    return "?";
}

const char *
frameErrorName(FrameError e)
{
    switch (e) {
      case FrameError::None: return "none";
      case FrameError::BadMagic: return "bad_magic";
      case FrameError::BadVersion: return "bad_version";
      case FrameError::Oversized: return "oversized";
      case FrameError::BadChecksum: return "bad_checksum";
      case FrameError::BadOpcode: return "bad_opcode";
      case FrameError::BadPayload: return "bad_payload";
    }
    return "?";
}

std::uint32_t
fnv1a(std::span<const std::uint8_t> bytes, std::uint32_t seed)
{
    std::uint32_t h = seed;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 16777619u;
    }
    return h;
}

namespace {

// ---- little-endian scalar writers/readers -------------------------

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putBytes(std::vector<std::uint8_t> &out, const std::string &s)
{
    out.insert(out.end(), s.begin(), s.end());
}

/** Bounds-checked little-endian reader over a payload. */
class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {}

    bool ok() const { return ok_; }
    bool done() const { return ok_ && pos_ == bytes_.size(); }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return bytes_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= std::uint32_t{bytes_[pos_++]} << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
        return v;
    }

    std::string
    bytes(std::size_t n)
    {
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(
                          bytes_.data() + pos_), n);
        pos_ += n;
        return s;
    }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_ || bytes_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Wrap @p payload in a checksummed frame header. */
std::vector<std::uint8_t>
frame(std::uint8_t opcode, std::uint64_t request_id,
      std::vector<std::uint8_t> payload)
{
    ENVY_ASSERT(payload.size() <= kMaxPayload,
                "serve: encoding oversized frame (", payload.size(),
                " bytes)");
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + payload.size());
    putU16(out, kMagic);
    out.push_back(kProtocolVersion);
    out.push_back(opcode);
    putU64(out, request_id);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    putU32(out, 0); // checksum placeholder
    out.insert(out.end(), payload.begin(), payload.end());

    std::uint32_t sum = fnv1a({out.data(), kHeaderBytes});
    sum = fnv1a({out.data() + kHeaderBytes, payload.size()}, sum);
    out[16] = static_cast<std::uint8_t>(sum);
    out[17] = static_cast<std::uint8_t>(sum >> 8);
    out[18] = static_cast<std::uint8_t>(sum >> 16);
    out[19] = static_cast<std::uint8_t>(sum >> 24);
    return out;
}

void
encodeSubOp(std::vector<std::uint8_t> &out, const SubOp &sub)
{
    out.push_back(static_cast<std::uint8_t>(sub.op));
    putU64(out, sub.key);
    if (sub.op == Op::Put) {
        putU32(out, static_cast<std::uint32_t>(sub.value.size()));
        putBytes(out, sub.value);
    }
}

bool
parseSubOp(Reader &r, SubOp &sub)
{
    const std::uint8_t op = r.u8();
    if (op != static_cast<std::uint8_t>(Op::Get) &&
        op != static_cast<std::uint8_t>(Op::Put) &&
        op != static_cast<std::uint8_t>(Op::Del)) {
        return false;
    }
    sub.op = static_cast<Op>(op);
    sub.key = r.u64();
    if (sub.op == Op::Put) {
        const std::uint32_t len = r.u32();
        if (len > kMaxValueBytes)
            return false;
        sub.value = r.bytes(len);
    }
    return r.ok();
}

} // namespace

std::vector<std::uint8_t>
encodeRequest(const Request &req)
{
    std::vector<std::uint8_t> payload;
    switch (req.op) {
      case Op::Get:
      case Op::Del:
        putU64(payload, req.key);
        break;
      case Op::Put:
        putU64(payload, req.key);
        putU32(payload, static_cast<std::uint32_t>(req.value.size()));
        putBytes(payload, req.value);
        break;
      case Op::Stat:
        break;
      case Op::Batch:
        ENVY_ASSERT(req.ops.size() <= kMaxBatchOps,
                    "serve: batch of ", req.ops.size(),
                    " sub-ops exceeds kMaxBatchOps");
        putU32(payload, static_cast<std::uint32_t>(req.ops.size()));
        for (const SubOp &sub : req.ops)
            encodeSubOp(payload, sub);
        break;
    }
    return frame(static_cast<std::uint8_t>(req.op), req.requestId,
                 std::move(payload));
}

void
appendResponse(const Response &resp, std::vector<std::uint8_t> &out)
{
    // Header first, payload appended in place behind it; payloadLen
    // and checksum are patched once the size is known.  No temporary
    // payload vector: this is the per-request hot path.
    const std::size_t base = out.size();
    putU16(out, kMagic);
    out.push_back(kProtocolVersion);
    out.push_back(static_cast<std::uint8_t>(resp.op) | kResponseBit);
    putU64(out, resp.requestId);
    putU32(out, 0); // payloadLen placeholder
    putU32(out, 0); // checksum placeholder

    out.push_back(static_cast<std::uint8_t>(resp.status));
    out.push_back(static_cast<std::uint8_t>(resp.admission));
    switch (resp.op) {
      case Op::Get:
        if (resp.status == Status::Ok) {
            putU32(out, static_cast<std::uint32_t>(resp.value.size()));
            putBytes(out, resp.value);
        }
        break;
      case Op::Put:
      case Op::Del:
        break;
      case Op::Stat:
        putU32(out, static_cast<std::uint32_t>(resp.stats.size()));
        for (const std::uint64_t v : resp.stats)
            putU64(out, v);
        break;
      case Op::Batch:
        putU32(out, static_cast<std::uint32_t>(resp.ops.size()));
        for (const SubReply &sub : resp.ops) {
            out.push_back(static_cast<std::uint8_t>(sub.status));
            if (sub.status == Status::Ok) {
                putU32(out, static_cast<std::uint32_t>(
                                sub.value.size()));
                putBytes(out, sub.value);
            }
        }
        break;
    }

    std::uint8_t *const hdr = out.data() + base;
    const std::size_t payload_len = out.size() - base - kHeaderBytes;
    ENVY_ASSERT(payload_len <= kMaxPayload,
                "serve: encoding oversized frame (", payload_len,
                " bytes)");
    for (int i = 0; i < 4; i++)
        hdr[12 + i] =
            static_cast<std::uint8_t>(payload_len >> (8 * i));
    std::uint32_t sum = fnv1a({hdr, kHeaderBytes});
    sum = fnv1a({hdr + kHeaderBytes, payload_len}, sum);
    for (int i = 0; i < 4; i++)
        hdr[16 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
}

std::vector<std::uint8_t>
encodeResponse(const Response &resp)
{
    std::vector<std::uint8_t> out;
    appendResponse(resp, out);
    return out;
}

// ---- incremental decoding -----------------------------------------

void
FrameDecoder::feed(std::span<const std::uint8_t> bytes)
{
    if (error_ != FrameError::None)
        return; // poisoned: framing is lost, drop everything
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<RawFrame>
FrameDecoder::next()
{
    if (error_ != FrameError::None)
        return std::nullopt;

    // Fail fast on the magic: a stream that opens with the wrong
    // bytes can never resynchronise, so reject it as soon as the
    // first two bytes arrive instead of waiting for a full header
    // that may never come.
    if (buf_.size() >= 2) {
        const std::uint16_t magic =
            static_cast<std::uint16_t>(buf_[0] | (buf_[1] << 8));
        if (magic != kMagic) {
            error_ = FrameError::BadMagic;
            return std::nullopt;
        }
    }
    if (buf_.size() < kHeaderBytes)
        return std::nullopt;

    std::uint8_t hdr[kHeaderBytes];
    std::copy_n(buf_.begin(), kHeaderBytes, hdr);
    if (hdr[2] != kProtocolVersion) {
        error_ = FrameError::BadVersion;
        return std::nullopt;
    }
    std::uint32_t len = 0, sum = 0;
    for (int i = 0; i < 4; i++) {
        len |= std::uint32_t{hdr[12 + i]} << (8 * i);
        sum |= std::uint32_t{hdr[16 + i]} << (8 * i);
    }
    if (len > kMaxPayload) {
        error_ = FrameError::Oversized;
        return std::nullopt;
    }
    if (buf_.size() < kHeaderBytes + len)
        return std::nullopt; // truncated: wait for more bytes

    RawFrame out;
    out.opcode = hdr[3];
    for (int i = 0; i < 8; i++)
        out.requestId |= std::uint64_t{hdr[4 + i]} << (8 * i);
    out.payload.assign(
        buf_.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
        buf_.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + len));

    hdr[16] = hdr[17] = hdr[18] = hdr[19] = 0;
    std::uint32_t expect = fnv1a({hdr, kHeaderBytes});
    expect = fnv1a({out.payload.data(), out.payload.size()}, expect);
    if (expect != sum) {
        error_ = FrameError::BadChecksum;
        return std::nullopt;
    }

    buf_.erase(buf_.begin(),
               buf_.begin() +
                   static_cast<std::ptrdiff_t>(kHeaderBytes + len));
    return out;
}

FrameError
parseRequest(const RawFrame &frame_in, Request &out)
{
    out = Request{};
    out.requestId = frame_in.requestId;
    const std::uint8_t opc = frame_in.opcode;
    if (opc < static_cast<std::uint8_t>(Op::Get) ||
        opc > static_cast<std::uint8_t>(Op::Stat)) {
        return FrameError::BadOpcode;
    }
    out.op = static_cast<Op>(opc);
    Reader r({frame_in.payload.data(), frame_in.payload.size()});
    switch (out.op) {
      case Op::Get:
      case Op::Del:
        out.key = r.u64();
        break;
      case Op::Put: {
        out.key = r.u64();
        const std::uint32_t len = r.u32();
        if (len > kMaxValueBytes)
            return FrameError::BadPayload;
        out.value = r.bytes(len);
        break;
      }
      case Op::Stat:
        break;
      case Op::Batch: {
        const std::uint32_t count = r.u32();
        if (count > kMaxBatchOps)
            return FrameError::BadPayload;
        out.ops.resize(count);
        for (std::uint32_t i = 0; i < count; i++) {
            if (!parseSubOp(r, out.ops[i]))
                return FrameError::BadPayload;
        }
        break;
      }
    }
    if (!r.done())
        return FrameError::BadPayload;
    return FrameError::None;
}

FrameError
parseResponse(const RawFrame &frame_in, Response &out)
{
    out = Response{};
    out.requestId = frame_in.requestId;
    if (!(frame_in.opcode & kResponseBit))
        return FrameError::BadOpcode;
    const std::uint8_t opc =
        frame_in.opcode & static_cast<std::uint8_t>(~kResponseBit);
    if (opc < static_cast<std::uint8_t>(Op::Get) ||
        opc > static_cast<std::uint8_t>(Op::Stat)) {
        return FrameError::BadOpcode;
    }
    out.op = static_cast<Op>(opc);

    Reader r({frame_in.payload.data(), frame_in.payload.size()});
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(Status::TooLarge))
        return FrameError::BadPayload;
    out.status = static_cast<Status>(status);
    const std::uint8_t admission = r.u8();
    if (admission > static_cast<std::uint8_t>(Admission::Queued))
        return FrameError::BadPayload;
    out.admission = static_cast<Admission>(admission);

    switch (out.op) {
      case Op::Get:
        if (out.status == Status::Ok) {
            const std::uint32_t len = r.u32();
            if (len > kMaxValueBytes)
                return FrameError::BadPayload;
            out.value = r.bytes(len);
        }
        break;
      case Op::Put:
      case Op::Del:
        break;
      case Op::Stat: {
        const std::uint32_t count = r.u32();
        if (count > 64)
            return FrameError::BadPayload;
        out.stats.resize(count);
        for (std::uint32_t i = 0; i < count; i++)
            out.stats[i] = r.u64();
        break;
      }
      case Op::Batch: {
        const std::uint32_t count = r.u32();
        if (count > kMaxBatchOps)
            return FrameError::BadPayload;
        out.ops.resize(count);
        for (std::uint32_t i = 0; i < count; i++) {
            SubReply &sub = out.ops[i];
            const std::uint8_t st = r.u8();
            if (st > static_cast<std::uint8_t>(Status::TooLarge))
                return FrameError::BadPayload;
            sub.status = static_cast<Status>(st);
            if (sub.status == Status::Ok) {
                const std::uint32_t len = r.u32();
                if (len > kMaxValueBytes)
                    return FrameError::BadPayload;
                sub.value = r.bytes(len);
            }
        }
        break;
      }
    }
    if (!r.done())
        return FrameError::BadPayload;
    return FrameError::None;
}

} // namespace serve
} // namespace envy

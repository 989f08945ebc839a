/**
 * @file
 * The envy-serve wire protocol (docs/SERVING.md §2).
 *
 * A length-prefixed binary framing shared by requests and responses.
 * Every frame is a 20-byte header followed by an opcode-specific
 * payload:
 *
 *   offset 0   u16  magic       0xE57E ("envy serve")
 *   offset 2   u8   version     kProtocolVersion (1)
 *   offset 3   u8   opcode      request Op, or Op | 0x80 for replies
 *   offset 4   u64  requestId   echoed verbatim in the response
 *   offset 12  u32  payloadLen  bytes following the header
 *   offset 16  u32  checksum    FNV-1a over the header (checksum
 *                               field zeroed) then the payload
 *
 * All integers are little-endian.  Frames whose payload exceeds
 * kMaxPayload are rejected before the payload is buffered, so a
 * hostile length field cannot balloon server memory.  Decoding is
 * incremental (feed() arbitrary byte chunks, poll next()) and total:
 * every malformed input produces a typed FrameError, never a crash —
 * tests/test_serve_protocol.cc fuzzes this contract under ASan/UBSan.
 *
 * Request payloads:
 *   Get    key u64
 *   Put    key u64, len u32, value bytes
 *   Del    key u64
 *   Stat   (empty)
 *   Batch  count u32, then count sub-ops, each op u8 + the matching
 *          Get/Put/Del request payload
 *
 * Response payloads (opcode = request opcode | 0x80):
 *   status u8, admission u8, then per-op data:
 *     Get    len u32 + value bytes (status Ok only)
 *     Put    (empty)
 *     Del    (empty)
 *     Stat   count u32, count u64 counter values (docs/SERVING.md §4)
 *     Batch  count u32, then count sub-replies, each status u8
 *            (+ len u32 + bytes for Ok Get sub-replies)
 */

#ifndef ENVY_SERVE_PROTOCOL_HH
#define ENVY_SERVE_PROTOCOL_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace envy {
namespace serve {

constexpr std::uint16_t kMagic = 0xE57E;
constexpr std::uint8_t kProtocolVersion = 1;
constexpr std::size_t kHeaderBytes = 20;
/** Hard payload ceiling; larger length fields are a protocol error. */
constexpr std::size_t kMaxPayload = 1u << 20;
/** Sub-operations allowed in one Batch frame. */
constexpr std::size_t kMaxBatchOps = 1024;
/** Value bytes allowed in one Put. */
constexpr std::size_t kMaxValueBytes = 64 * 1024;

enum class Op : std::uint8_t
{
    Get = 1,
    Put = 2,
    Del = 3,
    Batch = 4,
    Stat = 5,
};

constexpr std::uint8_t kResponseBit = 0x80;

const char *opName(Op op);

/** How the request fared against the store. */
enum class Status : std::uint8_t
{
    Ok = 0,
    NotFound = 1,
    /** Rejected by admission control; nothing was executed. */
    Shed = 2,
    /** Server-side failure (engine full, closed, internal). */
    Error = 3,
    /** Value larger than the engine's slot capacity. */
    TooLarge = 4,
};

const char *statusName(Status s);

/** How admission control routed the request (docs/SERVING.md §3). */
enum class Admission : std::uint8_t
{
    /** Executed straight off the queue, no pressure observed. */
    Direct = 0,
    /** Held in the admission queue past the soft watermark or during
     *  flush→clean backpressure before executing. */
    Queued = 1,
};

/** Why a frame was rejected.  Truncation is not an error — the
 *  decoder just waits for more bytes. */
enum class FrameError : std::uint8_t
{
    None = 0,
    BadMagic,
    BadVersion,
    Oversized,   //!< payloadLen > kMaxPayload
    BadChecksum,
    BadOpcode,
    BadPayload,  //!< opcode-specific payload malformed
};

const char *frameErrorName(FrameError e);

/** One sub-operation of a Batch request. */
struct SubOp
{
    Op op = Op::Get;
    std::uint64_t key = 0;
    std::string value; //!< Put only
};

/** A decoded request frame. */
struct Request
{
    Op op = Op::Get;
    std::uint64_t requestId = 0;
    std::uint64_t key = 0;
    std::string value;          //!< Put only
    std::vector<SubOp> ops;     //!< Batch only
};

/** One sub-reply of a Batch response. */
struct SubReply
{
    Status status = Status::Ok;
    std::string value; //!< Ok Get sub-replies only
};

/** A decoded response frame. */
struct Response
{
    Op op = Op::Get;            //!< the request opcode it answers
    std::uint64_t requestId = 0;
    Status status = Status::Ok;
    Admission admission = Admission::Direct;
    std::string value;               //!< Get
    std::vector<SubReply> ops;       //!< Batch
    std::vector<std::uint64_t> stats; //!< Stat (docs/SERVING.md §4)
};

// ---- encoding -----------------------------------------------------

std::vector<std::uint8_t> encodeRequest(const Request &req);
std::vector<std::uint8_t> encodeResponse(const Response &resp);

/**
 * Append @p resp's frame to @p out, reusing its capacity.  The hot
 * response path (ResponseWriter, one call per response) encodes
 * straight onto a connection's pending bytes, behind the responses
 * already queued there; after warm-up the encode is allocation-free.
 * encodeResponse() is the convenience wrapper over this.
 */
void appendResponse(const Response &resp, std::vector<std::uint8_t> &out);

/** FNV-1a 32-bit, the frame checksum. */
std::uint32_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 2166136261u);

// ---- decoding -----------------------------------------------------

/** A validated frame before opcode-specific payload parsing. */
struct RawFrame
{
    std::uint8_t opcode = 0;
    std::uint64_t requestId = 0;
    std::vector<std::uint8_t> payload;
};

/**
 * Incremental frame decoder.  feed() appends arbitrary byte chunks;
 * next() yields one validated frame per call until the buffer runs
 * dry.  The first malformed header or checksum poisons the decoder
 * (error() != None, next() stays empty): framing is lost for good on
 * a byte stream, so the connection must be torn down.
 */
class FrameDecoder
{
  public:
    void feed(std::span<const std::uint8_t> bytes);

    /** Next complete, checksum-valid frame, if one is buffered. */
    std::optional<RawFrame> next();

    FrameError error() const { return error_; }

    /** Bytes buffered but not yet consumed (tests). */
    std::size_t pending() const { return buf_.size(); }

  private:
    std::deque<std::uint8_t> buf_;
    FrameError error_ = FrameError::None;
};

/**
 * Parse a validated frame as a request / response.  Returns the
 * FrameError (BadOpcode / BadPayload) or None; on None @p out is
 * fully populated.
 */
FrameError parseRequest(const RawFrame &frame, Request &out);
FrameError parseResponse(const RawFrame &frame, Response &out);

} // namespace serve
} // namespace envy

#endif // ENVY_SERVE_PROTOCOL_HH

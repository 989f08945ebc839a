/**
 * @file
 * Protocol conformance for the envy-serve wire format
 * (serve/protocol.hh): round-trips for every opcode in both
 * directions, incremental decoding under arbitrary fragmentation,
 * typed errors for every malformed-frame class, and a seeded
 * mutation fuzz — a decoder fed corrupted or random bytes must
 * return FrameErrors, never crash (the sanitize CI job runs this
 * under ASan/UBSan).  Ends with end-to-end loopback runs against a
 * pump-mode server, so every opcode's server-side execution path is
 * covered without a single thread.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/loopback.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/random.hh"

namespace envy {
namespace serve {
namespace {

Request
makeGet(std::uint64_t id, std::uint64_t key)
{
    Request req;
    req.op = Op::Get;
    req.requestId = id;
    req.key = key;
    return req;
}

Request
makePut(std::uint64_t id, std::uint64_t key, std::string value)
{
    Request req;
    req.op = Op::Put;
    req.requestId = id;
    req.key = key;
    req.value = std::move(value);
    return req;
}

/** Decode one request frame from @p bytes, which must hold exactly
 *  one valid frame. */
Request
decodeRequest(const std::vector<std::uint8_t> &bytes)
{
    FrameDecoder dec;
    dec.feed(bytes);
    auto frame = dec.next();
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(dec.error(), FrameError::None);
    EXPECT_EQ(dec.pending(), 0u);
    Request out;
    EXPECT_EQ(parseRequest(*frame, out), FrameError::None);
    return out;
}

Response
decodeResponse(const std::vector<std::uint8_t> &bytes)
{
    FrameDecoder dec;
    dec.feed(bytes);
    auto frame = dec.next();
    EXPECT_TRUE(frame.has_value());
    Response out;
    EXPECT_EQ(parseResponse(*frame, out), FrameError::None);
    return out;
}

TEST(ServeProtocol, GetRoundTrip)
{
    const Request in = makeGet(7, 0xDEADBEEFull);
    const Request out = decodeRequest(encodeRequest(in));
    EXPECT_EQ(out.op, Op::Get);
    EXPECT_EQ(out.requestId, 7u);
    EXPECT_EQ(out.key, 0xDEADBEEFull);
}

TEST(ServeProtocol, PutRoundTripIncludingEmptyValue)
{
    for (const std::string &v :
         {std::string(), std::string("hello"),
          std::string(1000, 'x')}) {
        const Request out =
            decodeRequest(encodeRequest(makePut(1, 42, v)));
        EXPECT_EQ(out.op, Op::Put);
        EXPECT_EQ(out.key, 42u);
        EXPECT_EQ(out.value, v);
    }
}

TEST(ServeProtocol, DelAndStatRoundTrip)
{
    Request del;
    del.op = Op::Del;
    del.requestId = 9;
    del.key = 5;
    EXPECT_EQ(decodeRequest(encodeRequest(del)).op, Op::Del);

    Request stat;
    stat.op = Op::Stat;
    stat.requestId = 10;
    EXPECT_EQ(decodeRequest(encodeRequest(stat)).op, Op::Stat);
}

TEST(ServeProtocol, BatchRoundTrip)
{
    Request req;
    req.op = Op::Batch;
    req.requestId = 11;
    req.ops.push_back({Op::Put, 1, "one"});
    req.ops.push_back({Op::Get, 2, ""});
    req.ops.push_back({Op::Del, 3, ""});
    const Request out = decodeRequest(encodeRequest(req));
    ASSERT_EQ(out.ops.size(), 3u);
    EXPECT_EQ(out.ops[0].op, Op::Put);
    EXPECT_EQ(out.ops[0].value, "one");
    EXPECT_EQ(out.ops[1].op, Op::Get);
    EXPECT_EQ(out.ops[2].key, 3u);
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    Response resp;
    resp.op = Op::Get;
    resp.requestId = 3;
    resp.status = Status::Ok;
    resp.admission = Admission::Queued;
    resp.value = "payload";
    Response out = decodeResponse(encodeResponse(resp));
    EXPECT_EQ(out.op, Op::Get);
    EXPECT_EQ(out.status, Status::Ok);
    EXPECT_EQ(out.admission, Admission::Queued);
    EXPECT_EQ(out.value, "payload");

    Response batch;
    batch.op = Op::Batch;
    batch.requestId = 4;
    batch.status = Status::Ok;
    batch.ops.push_back({Status::Ok, "got"});
    batch.ops.push_back({Status::NotFound, ""});
    out = decodeResponse(encodeResponse(batch));
    ASSERT_EQ(out.ops.size(), 2u);
    EXPECT_EQ(out.ops[0].value, "got");
    EXPECT_EQ(out.ops[1].status, Status::NotFound);

    Response stat;
    stat.op = Op::Stat;
    stat.requestId = 5;
    stat.status = Status::Ok;
    stat.stats = {1, 2, 3, 4};
    out = decodeResponse(encodeResponse(stat));
    EXPECT_EQ(out.stats, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(ServeProtocol, DecoderHandlesArbitraryFragmentation)
{
    std::vector<std::uint8_t> bytes;
    for (std::uint64_t i = 0; i < 20; i++) {
        const auto one = encodeRequest(
            makePut(i, i * 3, std::string(i * 7, 'p')));
        bytes.insert(bytes.end(), one.begin(), one.end());
    }
    // Feed in every chunk size from 1 byte up; always 20 frames out.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                              std::size_t{17}, bytes.size()}) {
        FrameDecoder dec;
        std::size_t frames = 0;
        for (std::size_t off = 0; off < bytes.size(); off += chunk) {
            const std::size_t n =
                std::min(chunk, bytes.size() - off);
            dec.feed({bytes.data() + off, n});
            while (auto frame = dec.next()) {
                Request out;
                EXPECT_EQ(parseRequest(*frame, out),
                          FrameError::None);
                EXPECT_EQ(out.requestId, frames);
                frames++;
            }
        }
        EXPECT_EQ(frames, 20u);
        EXPECT_EQ(dec.error(), FrameError::None);
    }
}

TEST(ServeProtocol, TypedErrorsAndPoisoning)
{
    const auto good = encodeRequest(makeGet(1, 2));

    struct Case
    {
        std::size_t offset;
        std::uint8_t value;
        FrameError expect;
    };
    const Case cases[] = {
        {0, 0x00, FrameError::BadMagic},
        {2, 0x7F, FrameError::BadVersion},
        {15, 0xFF, FrameError::Oversized}, // payloadLen high byte
        {4, 0xAA, FrameError::BadChecksum}, // requestId flipped
    };
    for (const Case &c : cases) {
        auto bytes = good;
        bytes[c.offset] = c.value;
        FrameDecoder dec;
        dec.feed(bytes);
        EXPECT_FALSE(dec.next().has_value());
        EXPECT_EQ(dec.error(), c.expect);
        // Poisoned for good: valid bytes after the error stay dead.
        dec.feed(good);
        EXPECT_FALSE(dec.next().has_value());
        EXPECT_EQ(dec.error(), c.expect);
    }
}

TEST(ServeProtocol, BadOpcodeAndBadPayload)
{
    // Unknown opcode survives framing (checksum is over the real
    // bytes) and fails at parse time.
    Request req = makeGet(1, 2);
    auto bytes = encodeRequest(req);
    // Rebuild with a hostile opcode by re-encoding manually: flip
    // the opcode and fix the checksum through the decoder's eyes by
    // computing a fresh frame.  Easiest correct route: craft via
    // encode then patch opcode + recompute checksum.
    bytes[3] = 0x7F;
    // Zero the stored checksum, recompute over patched bytes.
    bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0;
    const std::uint32_t sum = fnv1a({bytes.data(), bytes.size()});
    bytes[16] = static_cast<std::uint8_t>(sum);
    bytes[17] = static_cast<std::uint8_t>(sum >> 8);
    bytes[18] = static_cast<std::uint8_t>(sum >> 16);
    bytes[19] = static_cast<std::uint8_t>(sum >> 24);
    FrameDecoder dec;
    dec.feed(bytes);
    auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    Request out;
    EXPECT_EQ(parseRequest(*frame, out), FrameError::BadOpcode);

    // A Get whose payload is one byte short of a key: truncate the
    // payload but keep the header honest about it.
    Request getreq = makeGet(3, 4);
    auto gb = encodeRequest(getreq);
    gb.pop_back(); // not resize(size() - 1): GCC 12 + ASan -Wstringop-overflow
    gb[12] = 7; // payloadLen 7 < 8
    gb[16] = gb[17] = gb[18] = gb[19] = 0;
    const std::uint32_t sum2 = fnv1a({gb.data(), gb.size()});
    gb[16] = static_cast<std::uint8_t>(sum2);
    gb[17] = static_cast<std::uint8_t>(sum2 >> 8);
    gb[18] = static_cast<std::uint8_t>(sum2 >> 16);
    gb[19] = static_cast<std::uint8_t>(sum2 >> 24);
    FrameDecoder dec2;
    dec2.feed(gb);
    auto frame2 = dec2.next();
    ASSERT_TRUE(frame2.has_value());
    EXPECT_EQ(parseRequest(*frame2, out), FrameError::BadPayload);
}

TEST(ServeProtocol, SeededMutationFuzzNeverCrashes)
{
    Rng rng(0xF00D);
    std::size_t decoded = 0, rejected = 0;
    for (int round = 0; round < 2000; round++) {
        // Build a small stream of valid frames...
        std::vector<std::uint8_t> bytes;
        const int frames = static_cast<int>(rng.between(1, 3));
        for (int f = 0; f < frames; f++) {
            Request req;
            switch (rng.below(5)) {
              case 0:
                req = makeGet(rng.next(), rng.next());
                break;
              case 1:
                req = makePut(rng.next(), rng.next(),
                              std::string(rng.below(200), 'v'));
                break;
              case 2:
                req.op = Op::Del;
                req.key = rng.next();
                break;
              case 3:
                req.op = Op::Stat;
                break;
              default: {
                req.op = Op::Batch;
                const std::uint64_t n = rng.between(1, 5);
                for (std::uint64_t i = 0; i < n; i++) {
                    SubOp sub;
                    sub.op = rng.chance(0.5) ? Op::Get : Op::Put;
                    sub.key = rng.next();
                    if (sub.op == Op::Put)
                        sub.value.assign(rng.below(50), 's');
                    req.ops.push_back(sub);
                }
                break;
              }
            }
            const auto one = encodeRequest(req);
            bytes.insert(bytes.end(), one.begin(), one.end());
        }
        // ...then corrupt a few bytes (or none) and decode it all.
        const std::uint64_t flips = rng.below(4);
        for (std::uint64_t i = 0; i < flips; i++)
            bytes[rng.below(bytes.size())] =
                static_cast<std::uint8_t>(rng.next());
        FrameDecoder dec;
        dec.feed(bytes);
        while (auto frame = dec.next()) {
            Request out;
            const FrameError err = parseRequest(*frame, out);
            if (err == FrameError::None)
                decoded++;
            else
                rejected++;
        }
        if (dec.error() != FrameError::None)
            rejected++;
    }
    // The fuzz must exercise both the accept and the reject path.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ServeProtocol, PureRandomBytesNeverCrash)
{
    Rng rng(0xBEEF);
    for (int round = 0; round < 500; round++) {
        std::vector<std::uint8_t> bytes(rng.below(400) + 1);
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.next());
        FrameDecoder dec;
        dec.feed(bytes);
        while (auto frame = dec.next()) {
            Request r;
            Response p;
            parseRequest(*frame, r);
            parseResponse(*frame, p);
        }
    }
}

TEST(ServeProtocol, OversizedValueRejectedAtEncodeBoundary)
{
    // Values above kMaxValueBytes never make it onto the wire as a
    // parseable Put: the payload parser rejects them.
    Request req = makePut(1, 2, std::string(kMaxValueBytes + 1, 'x'));
    const auto bytes = encodeRequest(req);
    FrameDecoder dec;
    dec.feed(bytes);
    auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    Request out;
    EXPECT_EQ(parseRequest(*frame, out), FrameError::BadPayload);
}

// ---- end to end over the loopback, pump mode ----------------------

struct PumpRig
{
    PumpRig()
        : store(config()), engine(store, engineConfig()),
          server(store, engine, serveConfig())
    {
        LoopbackPair pair = loopbackPair();
        server.attach(std::move(pair.server));
        client.emplace(std::move(pair.client));
    }

    static EnvyConfig
    config()
    {
        EnvyConfig cfg;
        cfg.geom = Geometry::tiny();
        cfg.geom.writeBufferPages = 32;
        return cfg;
    }
    static KvEngineConfig
    engineConfig()
    {
        KvEngineConfig cfg;
        cfg.numShards = 4;
        return cfg;
    }
    static ServeConfig
    serveConfig()
    {
        ServeConfig cfg;
        cfg.workers = 0;
        return cfg;
    }

    Response
    call(std::uint64_t id)
    {
        server.pump();
        Response resp;
        EXPECT_TRUE(client->recv(resp, false));
        EXPECT_EQ(resp.requestId, id);
        return resp;
    }

    EnvyStore store;
    KvEngine engine;
    Server server;
    std::optional<KvClient> client;
};

TEST(ServeLoopback, GetPutDelEndToEnd)
{
    PumpRig rig;
    Response resp = rig.call(rig.client->sendGet(1));
    EXPECT_EQ(resp.status, Status::NotFound);

    resp = rig.call(rig.client->sendPut(1, "value-1"));
    EXPECT_EQ(resp.status, Status::Ok);

    resp = rig.call(rig.client->sendGet(1));
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.value, "value-1");

    resp = rig.call(rig.client->sendDel(1));
    EXPECT_EQ(resp.status, Status::Ok);
    resp = rig.call(rig.client->sendDel(1));
    EXPECT_EQ(resp.status, Status::NotFound);

    resp = rig.call(rig.client->sendGet(1));
    EXPECT_EQ(resp.status, Status::NotFound);

    // Tombstone resurrect.
    resp = rig.call(rig.client->sendPut(1, "value-2"));
    EXPECT_EQ(resp.status, Status::Ok);
    resp = rig.call(rig.client->sendGet(1));
    EXPECT_EQ(resp.value, "value-2");
}

TEST(ServeLoopback, BatchAndStatEndToEnd)
{
    PumpRig rig;
    std::vector<SubOp> ops;
    ops.push_back({Op::Put, 10, "ten"});
    ops.push_back({Op::Put, 11, "eleven"});
    ops.push_back({Op::Get, 10, ""});
    ops.push_back({Op::Get, 999, ""});
    ops.push_back({Op::Del, 11, ""});
    Response resp = rig.call(rig.client->sendBatch(ops));
    EXPECT_EQ(resp.status, Status::Ok);
    ASSERT_EQ(resp.ops.size(), 5u);
    EXPECT_EQ(resp.ops[0].status, Status::Ok);
    EXPECT_EQ(resp.ops[2].status, Status::Ok);
    EXPECT_EQ(resp.ops[2].value, "ten");
    EXPECT_EQ(resp.ops[3].status, Status::NotFound);
    EXPECT_EQ(resp.ops[4].status, Status::Ok);

    resp = rig.call(rig.client->sendStat());
    EXPECT_EQ(resp.status, Status::Ok);
    ASSERT_EQ(resp.stats.size(),
              static_cast<std::size_t>(StatField::NumFields));
    EXPECT_EQ(resp.stats[static_cast<std::size_t>(StatField::Keys)],
              1u); // key 10 lives, key 11 deleted
    EXPECT_EQ(resp.stats[static_cast<std::size_t>(
                  StatField::BatchOps)],
              5u);
}

TEST(ServeLoopback, OversizedPutGetsTooLarge)
{
    PumpRig rig;
    // Larger than the engine's 100-byte slot but wire-legal.
    Response resp =
        rig.call(rig.client->sendPut(5, std::string(500, 'x')));
    EXPECT_EQ(resp.status, Status::TooLarge);
}

TEST(ServeLoopback, MalformedFrameTearsConnectionDown)
{
    PumpRig rig;
    const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02,
                                               0x03, 0x04};
    rig.client->stream().write(garbage);
    rig.server.pump();
    const auto snap = rig.store.metrics().snapshot();
    EXPECT_EQ(snap.counter("serve.protocol_errors"), 1u);
    // The stream is closed server-side; the client sees EOF.
    Response resp;
    EXPECT_FALSE(rig.client->recv(resp, true));
}

TEST(ServeLoopback, PipelinedRequestsAllAcked)
{
    PumpRig rig;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 100; i++) {
        // Appended, not "v" + to_string(i): GCC 12's -Wrestrict
        // misfires on operator+(const char *, std::string &&) at -O3.
        std::string value = "v";
        value += std::to_string(i);
        ids.push_back(rig.client->sendPut(i, value));
    }
    rig.server.pump();
    std::map<std::uint64_t, Status> acks;
    Response resp;
    while (rig.client->recv(resp, false))
        acks[resp.requestId] = resp.status;
    EXPECT_EQ(acks.size(), ids.size());
    for (const std::uint64_t id : ids)
        EXPECT_EQ(acks[id], Status::Ok);
}

} // namespace
} // namespace serve
} // namespace envy

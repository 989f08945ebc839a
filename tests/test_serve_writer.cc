/**
 * @file
 * The coalescing response writer (docs/SERVING.md §3, "Write path"):
 * responses queued while another thread's send is in progress leave
 * in that flusher's next write, byte-exact and in append order; the
 * pending-bytes cap stalls a non-flushing appender without losing a
 * byte; and a multi-worker server answers pipelined loopback clients
 * exactly once each with intact frames and no more sends than
 * responses.  The tsan CI job repeats this file under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/loopback.hh"
#include "serve/server.hh"

namespace envy {
namespace serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

/**
 * A write-only ByteStream that records every write() as one chunk.
 * While held, the first write() blocks after announcing itself, so a
 * test can queue responses behind a send that is provably in flight.
 */
class LatchStream : public ByteStream
{
  public:
    std::size_t
    read(std::span<std::uint8_t>, bool) override
    {
        return 0;
    }

    void
    write(std::span<const std::uint8_t> in) override
    {
        std::unique_lock<std::mutex> lock(mu_);
        writes_.emplace_back(in.begin(), in.end());
        if (writes_.size() == 1) {
            entered_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
        }
    }

    void close() override {}
    bool closed() const override { return false; }

    /** Block until the first write() is parked on the latch. */
    void
    awaitBlockedWrite()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return entered_; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            released_ = true;
        }
        cv_.notify_all();
    }

    std::vector<Bytes>
    writes()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return writes_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Bytes> writes_;
    bool entered_ = false;
    bool released_ = false;
};

Response
getResponse(std::uint64_t id, std::size_t valueBytes)
{
    Response r;
    r.op = Op::Get;
    r.requestId = id;
    r.status = Status::Ok;
    r.value.assign(valueBytes, static_cast<char>('a' + id % 26));
    return r;
}

Bytes
concat(const std::vector<Bytes> &chunks)
{
    Bytes out;
    for (const Bytes &c : chunks)
        out.insert(out.end(), c.begin(), c.end());
    return out;
}

struct WriterRig
{
    WriterRig()
        : sends(reg.counter("serve.sends", "sends", "")),
          bytesOut(reg.counter("serve.bytes_out", "bytes", "")),
          writer(stream, sends, bytesOut)
    {}

    obs::MetricsRegistry reg;
    obs::Counter sends;
    obs::Counter bytesOut;
    LatchStream stream;
    ResponseWriter writer;
};

TEST(ServeWriter, ResponsesQueuedBehindABlockedSendLeaveInOneWrite)
{
    WriterRig rig;
    const Response first = getResponse(1, 8);
    std::thread flusher([&] { rig.writer.send(first); });
    rig.stream.awaitBlockedWrite();

    // The flusher is parked inside write(): every later response only
    // queues, and the caller returns without sending.
    Bytes queued;
    for (std::uint64_t id = 2; id <= 9; id++) {
        const Response r = getResponse(id, id * 3);
        EXPECT_FALSE(rig.writer.append(r)) << "id " << id;
        const Bytes enc = encodeResponse(r);
        queued.insert(queued.end(), enc.begin(), enc.end());
    }
    EXPECT_EQ(rig.stream.writes().size(), 1u);

    rig.stream.release();
    flusher.join();
    std::vector<Bytes> writes = rig.stream.writes();
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[0], encodeResponse(first));
    EXPECT_EQ(writes[1], queued); // one write, append order, exact
    EXPECT_EQ(rig.sends.value(), 2u);
    EXPECT_EQ(rig.bytesOut.value(), writes[0].size() + writes[1].size());

    // The flusher resigned once nothing was pending: the next
    // response's own thread sends it.
    const Response last = getResponse(10, 1);
    rig.writer.send(last);
    writes = rig.stream.writes();
    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[2], encodeResponse(last));
    EXPECT_EQ(rig.sends.value(), 3u);
}

TEST(ServeWriter, AppenderOverTheCapWaitsAndLosesNothing)
{
    WriterRig rig;
    const Response first = getResponse(1, 8);
    std::thread flusher([&] { rig.writer.send(first); });
    rig.stream.awaitBlockedWrite();
    std::vector<Response> sent = {first};

    // Fill the pending bytes to the cap; none of these appends waits,
    // because each finds less than the cap queued.
    constexpr std::size_t kValue = 8 * 1024;
    std::size_t pending = 0;
    for (std::uint64_t id = 2;
         pending < ResponseWriter::kMaxPendingBytes; id++) {
        sent.push_back(getResponse(id, kValue));
        EXPECT_FALSE(rig.writer.append(sent.back()));
        pending += encodeResponse(sent.back()).size();
    }

    // One more finds the cap reached behind another thread's send and
    // must wait until the flusher swaps the pending bytes out.
    sent.push_back(getResponse(sent.size() + 1, kValue));
    std::atomic<bool> appended{false};
    std::thread over([&] {
        rig.writer.send(sent.back());
        appended.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(appended.load()) << "appender ran past the cap";

    rig.stream.release();
    flusher.join();
    over.join();
    EXPECT_TRUE(appended.load());

    Bytes expected;
    for (const Response &r : sent) {
        const Bytes enc = encodeResponse(r);
        expected.insert(expected.end(), enc.begin(), enc.end());
    }
    const std::vector<Bytes> writes = rig.stream.writes();
    EXPECT_EQ(concat(writes), expected); // nothing lost, append order
    EXPECT_LE(writes.size(), 3u);
    EXPECT_EQ(rig.sends.value(), writes.size());
    EXPECT_EQ(rig.bytesOut.value(), expected.size());
}

TEST(ServeWriter, FlusherAppendsPastTheCapWithoutWaitingOnItself)
{
    // The commit thread's pattern: take the role, queue a whole batch
    // (here well past the cap), then send it in one write.
    WriterRig rig;
    rig.stream.release();
    std::vector<Response> batch;
    for (std::uint64_t id = 1; id <= 24; id++)
        batch.push_back(getResponse(id, 8 * 1024));
    EXPECT_TRUE(rig.writer.append(batch[0]));
    for (std::size_t i = 1; i < batch.size(); i++)
        EXPECT_FALSE(rig.writer.append(batch[i]));
    rig.writer.flush();

    Bytes expected;
    for (const Response &r : batch) {
        const Bytes enc = encodeResponse(r);
        expected.insert(expected.end(), enc.begin(), enc.end());
    }
    const std::vector<Bytes> writes = rig.stream.writes();
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_GT(writes[0].size(), ResponseWriter::kMaxPendingBytes);
    EXPECT_EQ(writes[0], expected);
}

TEST(ServeWriter, PipelinedClientsAgainstWorkersGetEveryAnswerOnce)
{
    EnvyConfig storeCfg;
    storeCfg.geom = Geometry::tiny();
    storeCfg.geom.writeBufferPages = 32;
    storeCfg.numWorkers = 4;
    EnvyStore store(storeCfg);
    KvEngineConfig engineCfg;
    engineCfg.numShards = 4;
    KvEngine engine(store, engineCfg);
    ServeConfig cfg;
    cfg.workers = 4;
    Server server(store, engine, cfg);

    constexpr unsigned kClients = 4;
    constexpr std::uint64_t kRequests = 600;
    constexpr std::uint64_t kWindow = 16; // 64 in flight < queueHard
    std::vector<std::unique_ptr<KvClient>> clients;
    for (unsigned c = 0; c < kClients; c++) {
        LoopbackPair pair = loopbackPair();
        server.attach(std::move(pair.server));
        clients.push_back(std::make_unique<KvClient>(std::move(pair.client)));
    }

    std::atomic<std::uint64_t> answered{0}, answerBytes{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; c++) {
        threads.emplace_back([&, c] {
            KvClient &cli = *clients[c];
            // Each client owns keys c*100 + [0, 8): every value it
            // reads back is one it wrote there.
            auto valueOf = [c](std::uint64_t i) {
                return "c" + std::to_string(c) + "-" + std::to_string(i);
            };
            std::map<std::uint64_t, Op> outstanding;
            std::set<std::uint64_t> seen;
            std::uint64_t issued = 0;
            while (seen.size() < kRequests) {
                while (issued < kRequests && outstanding.size() < kWindow) {
                    const std::uint64_t key = c * 100 + issued % 8;
                    const bool put = issued % 3 == 0;
                    const std::uint64_t id =
                        put ? cli.sendPut(key, valueOf(issued))
                            : cli.sendGet(key);
                    outstanding[id] = put ? Op::Put : Op::Get;
                    issued++;
                }
                Response resp;
                ASSERT_TRUE(cli.recv(resp)); // fatal on a torn frame
                const auto it = outstanding.find(resp.requestId);
                ASSERT_NE(it, outstanding.end())
                    << "unknown or repeated id " << resp.requestId;
                EXPECT_TRUE(seen.insert(resp.requestId).second);
                EXPECT_EQ(resp.op, it->second);
                if (resp.op == Op::Put) {
                    EXPECT_EQ(resp.status, Status::Ok);
                } else if (resp.status == Status::Ok) {
                    EXPECT_EQ(resp.value.rfind(
                                  "c" + std::to_string(c) + "-", 0),
                              0u)
                        << resp.value;
                } else {
                    EXPECT_EQ(resp.status, Status::NotFound);
                }
                outstanding.erase(it);
                answered.fetch_add(1);
                answerBytes.fetch_add(encodeResponse(resp).size());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();

    const obs::MetricsSnapshot snap = store.metrics().snapshot();
    const std::uint64_t responses =
        snap.counter("serve.requests") + snap.counter("serve.shed");
    EXPECT_EQ(answered.load(), kClients * kRequests);
    EXPECT_EQ(responses, kClients * kRequests);
    EXPECT_EQ(snap.counter("serve.shed"), 0u);
    EXPECT_GT(snap.counter("serve.sends"), 0u);
    EXPECT_LE(snap.counter("serve.sends"), responses);
    EXPECT_EQ(snap.counter("serve.bytes_out"), answerBytes.load());
}

} // namespace
} // namespace serve
} // namespace envy

#include "serve/server.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace envy {
namespace serve {

const char *
admitDecisionName(AdmitDecision d)
{
    switch (d) {
      case AdmitDecision::Direct:
        return "direct";
      case AdmitDecision::Queued:
        return "queued";
      case AdmitDecision::Shed:
        return "shed";
    }
    return "?";
}

AdmitDecision
admitRequest(std::size_t depth, std::size_t queueSoft,
             std::size_t queueHard, bool backpressure)
{
    if (depth >= queueHard)
        return AdmitDecision::Shed;
    if (depth >= queueSoft || backpressure)
        return AdmitDecision::Queued;
    return AdmitDecision::Direct;
}

ResponseWriter::ResponseWriter(ByteStream &stream, obs::Counter sends,
                               obs::Counter bytesOut)
    : stream_(stream), sends_(sends), bytesOut_(bytesOut)
{
}

bool
ResponseWriter::append(const Response &resp)
{
    const std::thread::id self = std::this_thread::get_id();
    MutexLock lock(mu_);
    // Pending bytes are only ever queued behind an active flusher, so
    // this waits for another thread's send to take them; a flusher
    // appending to its own connection never waits on itself.
    while (pending_.size() >= kMaxPendingBytes && flusher_ != self)
        drainCv_.wait(lock);
    appendResponse(resp, pending_);
    if (flusher_ != std::thread::id())
        return false;
    flusher_ = self;
    return true;
}

void
ResponseWriter::flush()
{
    for (;;) {
        bool wake;
        {
            MutexLock lock(mu_);
            if (pending_.empty()) {
                flusher_ = std::thread::id();
                return;
            }
            wake = pending_.size() >= kMaxPendingBytes;
            pending_.swap(outbox_);
        }
        if (wake)
            drainCv_.notify_all();
        stream_.write(outbox_);
        sends_.add();
        bytesOut_.add(outbox_.size());
        outbox_.clear();
    }
}

Server::Server(EnvyStore &store, KvEngine &engine,
               const ServeConfig &cfg)
    : store_(store), engine_(engine), cfg_(cfg)
{
    ENVY_ASSERT(cfg_.queueHard > 0 && cfg_.queueSoft <= cfg_.queueHard,
                "serve: queue watermarks inverted (soft ",
                cfg_.queueSoft, " hard ", cfg_.queueHard, ")");
    ENVY_ASSERT(cfg_.maxBatchOps >= 1 &&
                    cfg_.maxBatchOps <= kMaxBatchOps,
                "serve: maxBatchOps ", cfg_.maxBatchOps,
                " outside [1, ", kMaxBatchOps, "]");
    ENVY_ASSERT(!cfg_.durableAcks || store_.persistent(),
                "serve: durableAcks needs a persistent store");
    // A *serial* persistent store allows at most one executor thread;
    // a concurrent one (numWorkers > 1 / numCleaners > 0 with a
    // persistPath, PR 10) takes any worker count — SRAM-hit writers
    // ride the structural lock shared and durability batches through
    // the commit pipeline (envy_store.hh).
    ENVY_ASSERT(!store_.persistent() ||
                    store_.controller().concurrent() ||
                    cfg_.workers <= 1,
                "serve: a serial persistent store allows at most 1 "
                "worker");
    groupCommit_ = cfg_.durableAcks && cfg_.workers > 0 &&
                   store_.persistent() &&
                   store_.controller().concurrent();

    obs::MetricsRegistry &reg = store_.metrics();
    metRequests_ = reg.counter("serve.requests", "requests",
                               "requests executed (not shed)");
    metBatchOps_ = reg.counter("serve.batch_ops", "ops",
                               "sub-ops executed inside batches");
    metShed_ = reg.counter("serve.shed", "requests",
                           "requests refused by admission control");
    metQueued_ = reg.counter(
        "serve.queued", "requests",
        "requests admitted with queue or flash pressure observed");
    metAdmitted_ = reg.counter("serve.admitted", "requests",
                               "requests admitted direct");
    metBackpressureSignals_ =
        reg.counter("serve.backpressure_signals", "signals",
                    "controller backpressure hook fires");
    metBytesIn_ = reg.counter("serve.bytes_in", "bytes",
                              "request bytes received");
    metBytesOut_ = reg.counter("serve.bytes_out", "bytes",
                               "response bytes sent");
    metSends_ = reg.counter("serve.sends", "sends",
                            "response writes handed to the transport");
    metProtocolErrors_ =
        reg.counter("serve.protocol_errors", "connections",
                    "connections torn down on malformed frames");
    metCommitBatches_ =
        reg.counter("serve.commit_batches", "batches",
                    "durable-ack batches sharing one journal flush");
    metQueueDepth_ = reg.gauge("serve.queue_depth", "requests",
                               "admission queue depth");
    metCommitQueue_ = reg.gauge("serve.commit_queue", "responses",
                                "acks parked for the next flush epoch");
    {
        MutexLock lock(histMu_);
        metExecUs_ = reg.histogram(
            "serve.exec_us", "us", "request execution time",
            {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
             8192, 16384, 32768, 65536, 131072, 262144, 524288,
             1048576});
        metCommitBatch_ = reg.histogram(
            "serve.commit_batch", "acks",
            "durable acks released per commit-thread flush",
            {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    }

    // Chain onto the controller's backpressure hook: the cleaner
    // pool's poke (installed by EnvyStore) keeps firing, and the
    // admission path learns the flash is behind.
    prevHook_ = store_.controller().backpressureHook;
    store_.controller().backpressureHook = [this] {
        backpressure_.store(true, std::memory_order_relaxed);
        metBackpressureSignals_.add();
        if (prevHook_)
            prevHook_();
    };

    for (unsigned w = 0; w < cfg_.workers; w++)
        workers_.emplace_back([this] { workerLoop(); });
    if (groupCommit_)
        commitThread_ = std::thread([this] { commitLoop(); });
}

Server::~Server()
{
    stop();
    store_.controller().backpressureHook = prevHook_;
}

void
Server::attach(ByteStreamPtr stream)
{
    ENVY_ASSERT(stream, "serve: attach() of a null stream");
    ENVY_ASSERT(!stopping_.load(std::memory_order_relaxed),
                "serve: attach() after stop()");
    auto conn = std::make_shared<Conn>(std::move(stream), metSends_,
                                       metBytesOut_);
    {
        MutexLock lock(connMu_);
        conns_.push_back(conn);
    }
    if (cfg_.workers > 0)
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
}

void
Server::readerLoop(ConnPtr conn)
{
    std::vector<std::uint8_t> buf(64 * 1024);
    while (!stopping_.load(std::memory_order_relaxed)) {
        const std::size_t n = conn->stream->read(buf, true);
        if (n == 0)
            break; // closed
        metBytesIn_.add(n);
        if (!drainConn(conn, {buf.data(), n}, nullptr))
            break;
    }
}

bool
Server::drainConn(const ConnPtr &conn,
                  std::span<const std::uint8_t> bytes,
                  std::size_t *handled)
{
    conn->decoder.feed(bytes);
    while (auto frame = conn->decoder.next()) {
        Request req;
        const FrameError err = parseRequest(*frame, req);
        if (err != FrameError::None) {
            metProtocolErrors_.add();
            ENVY_TRACE("serve.protocol_error",
                       obs::tv("error", frameErrorName(err)),
                       obs::tv("opcode", frame->opcode));
            conn->dead = true;
            conn->stream->close();
            return false;
        }
        if (handled)
            ++*handled;
        routeRequest(conn, std::move(req));
    }
    if (conn->decoder.error() != FrameError::None) {
        metProtocolErrors_.add();
        ENVY_TRACE("serve.frame_error",
                   obs::tv("error",
                      frameErrorName(conn->decoder.error())));
        conn->dead = true;
        conn->stream->close();
        return false;
    }
    return true;
}

void
Server::routeRequest(const ConnPtr &conn, Request &&req)
{
    const Op op = req.op;
    const std::uint64_t id = req.requestId;
    AdmitDecision decision;
    std::size_t depth;
    {
        MutexLock lock(queueMu_);
        depth = queue_.size();
        decision = admitRequest(
            depth, cfg_.queueSoft, cfg_.queueHard,
            backpressure_.load(std::memory_order_relaxed));
        if (decision != AdmitDecision::Shed && cfg_.workers > 0) {
            Work work;
            work.conn = conn;
            work.req = std::move(req);
            work.admission = decision == AdmitDecision::Queued
                                 ? Admission::Queued
                                 : Admission::Direct;
            queue_.push_back(std::move(work));
            metQueueDepth_.set(static_cast<double>(queue_.size()));
        }
    }
    if (decision == AdmitDecision::Shed) {
        metShed_.add();
        ENVY_TRACE("serve.shed", obs::tv("id", id), obs::tv("depth", depth));
        Response resp;
        resp.op = op;
        resp.requestId = id;
        resp.status = Status::Shed;
        respond(conn, resp, false);
        return;
    }
    if (decision == AdmitDecision::Queued) {
        metQueued_.add();
        ENVY_TRACE("serve.queue", obs::tv("id", id), obs::tv("depth", depth),
                   obs::tv("backpressure", backpressureActive()));
    } else {
        metAdmitted_.add();
    }
    if (cfg_.workers > 0) {
        workCv_.notify_one();
        return;
    }
    // Pump mode: execute inline, right now, deterministically.
    executeAndRespond(conn, req,
                      decision == AdmitDecision::Queued
                          ? Admission::Queued
                          : Admission::Direct);
}

void
Server::workerLoop()
{
    for (;;) {
        Work work;
        bool drained;
        {
            MutexLock lock(queueMu_);
            while (queue_.empty() &&
                   !stopping_.load(std::memory_order_relaxed))
                workCv_.wait(lock);
            if (queue_.empty())
                return; // stopping, nothing left to drain
            work = std::move(queue_.front());
            queue_.pop_front();
            metQueueDepth_.set(static_cast<double>(queue_.size()));
            drained = queue_.empty();
        }
        if (drained) {
            // Queue empty again: the burst is absorbed.  The hook
            // re-latches the flag if the flash is still behind.
            backpressure_.store(false, std::memory_order_relaxed);
        }
        executeAndRespond(work.conn, work.req, work.admission);
    }
}

void
Server::executeAndRespond(const ConnPtr &conn, const Request &req,
                          Admission admission)
{
    const auto start = std::chrono::steady_clock::now();
    Response resp = execute(req);
    resp.admission = admission;
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    {
        MutexLock lock(histMu_);
        metExecUs_.record(static_cast<std::uint64_t>(us));
    }
    const bool mutated =
        req.op == Op::Put || req.op == Op::Del ||
        (req.op == Op::Batch &&
         std::any_of(req.ops.begin(), req.ops.end(),
                     [](const SubOp &s) { return s.op != Op::Get; }));
    respond(conn, resp, mutated);
}

Response
Server::execute(const Request &req)
{
    Response resp;
    resp.op = req.op;
    resp.requestId = req.requestId;
    switch (req.op) {
      case Op::Get: {
        KvEngine::GetResult got = engine_.get(req.key);
        resp.status = got.status;
        resp.value = std::move(got.value);
        break;
      }
      case Op::Put:
        resp.status = engine_.put(
            req.key,
            {reinterpret_cast<const std::uint8_t *>(req.value.data()),
             req.value.size()});
        break;
      case Op::Del:
        resp.status = engine_.del(req.key);
        break;
      case Op::Batch: {
        if (req.ops.size() > cfg_.maxBatchOps) {
            resp.status = Status::TooLarge;
            break;
        }
        resp.status = Status::Ok;
        resp.ops.reserve(req.ops.size());
        for (const SubOp &sub : req.ops) {
            SubReply reply;
            switch (sub.op) {
              case Op::Get: {
                KvEngine::GetResult got = engine_.get(sub.key);
                reply.status = got.status;
                reply.value = std::move(got.value);
                break;
              }
              case Op::Put:
                reply.status = engine_.put(
                    sub.key, {reinterpret_cast<const std::uint8_t *>(
                                  sub.value.data()),
                              sub.value.size()});
                break;
              case Op::Del:
                reply.status = engine_.del(sub.key);
                break;
              default:
                reply.status = Status::Error;
                break;
            }
            resp.ops.push_back(std::move(reply));
        }
        metBatchOps_.add(req.ops.size());
        ENVY_TRACE("serve.batch", obs::tv("id", req.requestId),
                   obs::tv("ops", req.ops.size()));
        break;
      }
      case Op::Stat: {
        resp.status = Status::Ok;
        resp.stats.resize(
            static_cast<std::size_t>(StatField::NumFields));
        auto at = [&resp](StatField f) -> std::uint64_t & {
            return resp.stats[static_cast<std::size_t>(f)];
        };
        at(StatField::Requests) = metRequests_.value();
        at(StatField::Shed) = metShed_.value();
        at(StatField::Queued) = metQueued_.value();
        at(StatField::Admitted) = metAdmitted_.value();
        at(StatField::BatchOps) = metBatchOps_.value();
        at(StatField::ProtocolErrors) = metProtocolErrors_.value();
        at(StatField::Keys) = engine_.keyCount();
        break;
      }
    }
    metRequests_.add();
    ENVY_TRACE("serve.request", obs::tv("op", opName(req.op)),
               obs::tv("id", req.requestId),
               obs::tv("status", statusName(resp.status)));
    return resp;
}

void
Server::respond(const ConnPtr &conn, const Response &resp,
                bool mutated)
{
    // Ack-prefix durability (docs/SERVING.md §3): the journal append
    // completes before the ack bytes exist anywhere, so every ack a
    // client ever observes names a mutation that survives SIGKILL.
    if (mutated && cfg_.durableAcks) {
        if (groupCommit_) {
            // Park the ack; the commit thread joins one pipeline
            // flush epoch for the whole batch and writes it then.
            std::size_t depth;
            {
                MutexLock lock(commitMu_);
                commitQueue_.push_back(PendingAck{conn, resp});
                depth = commitQueue_.size();
            }
            metCommitQueue_.set(static_cast<double>(depth));
            commitCv_.notify_one();
            return;
        }
        if (cfg_.syncAcks)
            store_.persistSync();
        else
            store_.persistFlush();
    }
    conn->writer.send(resp);
}

void
Server::commitLoop()
{
    for (;;) {
        std::deque<PendingAck> batch;
        {
            MutexLock lock(commitMu_);
            while (commitQueue_.empty() && !commitStop_)
                commitCv_.wait(lock);
            if (commitQueue_.empty())
                return; // stopping and fully drained
            batch.swap(commitQueue_);
        }
        metCommitQueue_.set(0);
        // One journal flush epoch covers every mutation in the batch:
        // persistFlush() blocks until the CommitPipeline's next epoch
        // lands, and the batch's mutations all happened-before this
        // call, so the epoch's quiesced capture includes them.  With
        // syncAcks the batch also shares a single device barrier
        // (fdatasync) — the classic group-commit amortisation.
        if (cfg_.syncAcks)
            store_.persistSync();
        else
            store_.persistFlush();
        // Queue every ack first, then send once per connection this
        // thread became the flusher of; the batch keeps each
        // connection alive until then.
        std::vector<ResponseWriter *> flushers;
        for (const PendingAck &ack : batch)
            if (ack.conn->writer.append(ack.resp))
                flushers.push_back(&ack.conn->writer);
        for (ResponseWriter *writer : flushers)
            writer->flush();
        metCommitBatches_.add();
        {
            MutexLock lock(histMu_);
            metCommitBatch_.record(batch.size());
        }
        ENVY_TRACE("serve.commit_batch",
                   obs::tv("acks", batch.size()));
    }
}

std::size_t
Server::pump()
{
    ENVY_ASSERT(cfg_.workers == 0,
                "serve: pump() is the workers == 0 mode");
    std::vector<ConnPtr> conns;
    {
        MutexLock lock(connMu_);
        conns = conns_;
    }
    std::size_t handled = 0;
    std::vector<std::uint8_t> buf(64 * 1024);
    for (const ConnPtr &conn : conns) {
        if (conn->dead)
            continue;
        for (;;) {
            const std::size_t n = conn->stream->read(buf, false);
            if (n == 0)
                break;
            metBytesIn_.add(n);
            if (!drainConn(conn, {buf.data(), n}, &handled))
                break;
        }
    }
    // The pass drained everything buffered; any pressure observed on
    // the way is absorbed (mirrors the worker-pool clear).
    backpressure_.store(false, std::memory_order_relaxed);
    return handled;
}

std::size_t
Server::queueDepth() const
{
    MutexLock lock(queueMu_);
    return queue_.size();
}

void
Server::stop()
{
    if (stopping_.exchange(true))
        return;
    std::vector<ConnPtr> conns;
    {
        MutexLock lock(connMu_);
        conns = conns_;
    }
    for (const ConnPtr &conn : conns)
        conn->stream->close();
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    // Workers are parked, so no new acks arrive; the commit thread
    // drains whatever is still queued (flushing it durable) before it
    // honours the stop — no acknowledged mutation is dropped.
    if (commitThread_.joinable()) {
        {
            MutexLock lock(commitMu_);
            commitStop_ = true;
        }
        commitCv_.notify_one();
        commitThread_.join();
    }
    for (const ConnPtr &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();
}

} // namespace serve
} // namespace envy

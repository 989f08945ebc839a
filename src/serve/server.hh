/**
 * @file
 * The envy-serve server core: connections in, admission control,
 * request execution against the KvEngine (docs/SERVING.md §3).
 *
 * The server is transport-agnostic — it owns ByteStream endpoints
 * (loopback in tests, TCP sockets in envy_served) and never opens one
 * itself.  Two execution modes share every code path that matters:
 *
 *  - **Threaded** (cfg.workers > 0): attach() starts one reader
 *    thread per connection that decodes frames and routes them
 *    through admission control into a bounded work queue; a fixed
 *    pool of worker threads drains the queue, executes against the
 *    engine (meeting the PR 8 sharded controller underneath) and
 *    hands responses to the connection's coalescing ResponseWriter
 *    (one send per burst, see below).
 *  - **Pump** (cfg.workers == 0): no threads at all.  pump() drains
 *    whatever bytes the attached loopbacks hold and executes every
 *    complete request inline, deterministically — the mode the
 *    protocol, restart and model-checking tests run in.
 *
 * Admission control turns the controller's flush→clean backpressure
 * into explicit, observable outcomes instead of silent stalls:
 *
 *    depth >= queueHard                 -> Shed   (refused, not run)
 *    depth >= queueSoft or backpressure -> Queued (run, flagged)
 *    otherwise                          -> Direct
 *
 * The backpressure flag is fed by chaining onto
 * Controller::backpressureHook (the cleaner pool keeps its poke) and
 * cleared once a worker drains the queue empty.  Every decision is
 * visible three ways: the response's admission/status byte, the
 * serve.shed / serve.queued counters, and serve.* trace events — the
 * admission tests cross-check all three.
 *
 * Ordering contract: one connection's requests enter the queue in
 * send order, but a worker pool may *execute* them concurrently, so
 * pipelined writes to the same key may land in any order.  A client
 * that waits for each ack before the next dependent request gets
 * strict per-key ordering (the engine's shard lock orders every op on
 * a key); that is the discipline the history tests verify.
 *
 * Durable ack-prefix contract (cfg.durableAcks, docs/SERVING.md §3):
 * a mutation's ack bytes are encoded (and so reach the transport)
 * only after a journal flush covering that mutation completed, so at
 * any SIGKILL the set of acks each client has observed names only
 * mutations that survive restart — acked writes are never lost, and
 * unacked writes may or may not survive.  On a serial persistent
 * store the flush is inline per response.  On a *concurrent*
 * persistent store (PR 10) a commit thread batches: workers enqueue
 * mutated responses on the commit queue, the thread drains a batch,
 * joins ONE CommitPipeline flush epoch for all of them, then queues
 * every ack and sends once per connection — N in-flight PUTs share
 * one journal append without weakening the prefix property (enqueue
 * precedes flush precedes ack, per response).
 */

#ifndef ENVY_SERVE_SERVER_HH
#define ENVY_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "obs/metrics.hh"
#include "serve/kv_engine.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"

namespace envy {
namespace serve {

struct ServeConfig
{
    /** Executor threads; 0 selects the deterministic pump() mode. */
    unsigned workers = 0;
    /** Queue depth at which admission flips Direct -> Queued. */
    std::size_t queueSoft = 64;
    /** Queue depth at which requests are shed outright. */
    std::size_t queueHard = 256;
    /** Batch sub-ops accepted per request (<= kMaxBatchOps). */
    std::size_t maxBatchOps = kMaxBatchOps;
    /**
     * Make every mutation SIGKILL-durable before its ack leaves the
     * server (EnvyStore::persistFlush, the crash-harness ack-prefix
     * contract).  Requires a persistent store.  With a *concurrent*
     * persistent store and workers > 0 the flush is group-committed:
     * mutated responses queue on a commit thread that shares one
     * journal epoch across the batch (file comment above).
     */
    bool durableAcks = false;
    /**
     * Strengthen durableAcks with the journal log force: acks wait
     * for EnvyStore::persistSync (journal append + fdatasync)
     * instead of persistFlush, so an acked mutation's journal record
     * survives power loss, not just SIGKILL.  In group-commit mode
     * the commit thread pays ONE device barrier per batch; the
     * serial inline path pays one per mutated request — exactly the
     * comparison bench_serve's durable table measures.  Ignored
     * unless durableAcks is set.
     */
    bool syncAcks = false;
};

/** Where admission control routed (or refused) a request. */
enum class AdmitDecision : std::uint8_t
{
    Direct,
    Queued,
    Shed,
};

const char *admitDecisionName(AdmitDecision d);

/**
 * The admission decision function, pure and alone so the unit tests
 * can pin its contract without a server (docs/SERVING.md §3).
 */
AdmitDecision admitRequest(std::size_t depth, std::size_t queueSoft,
                           std::size_t queueHard, bool backpressure);

/** Meaning of the u64s in a Stat response, by index. */
enum class StatField : std::size_t
{
    Requests = 0,       //!< requests executed (not shed)
    Shed,               //!< requests refused by admission control
    Queued,             //!< requests admitted with pressure observed
    Admitted,           //!< requests admitted Direct
    BatchOps,           //!< sub-ops executed inside Batch requests
    ProtocolErrors,     //!< connections torn down on malformed frames
    Keys,               //!< live keys in the engine right now
    NumFields,
};

/**
 * One connection's coalescing response writer (docs/SERVING.md §3,
 * "Write path").
 *
 * Several threads answer on one connection: the protocol workers,
 * the reader (shed responses), pump() and the group-commit thread.
 * Instead of one send per response under a per-connection lock, the
 * writer combines them (flat combining):
 *
 *  - append() encodes the response under mu_ straight onto the
 *    pending bytes, behind whatever is already queued there;
 *  - if no thread is sending on the connection, the appender becomes
 *    the flusher.  flush() swaps the pending bytes out, drops mu_,
 *    hands all of them to ONE ByteStream::write() and repeats until
 *    nothing is pending;
 *  - an appender that finds a flusher active just returns: its bytes
 *    leave in the flusher's next write.
 *
 * Byte order on the stream is append order.  Pending bytes are
 * bounded: an appender that finds kMaxPendingBytes or more queued
 * behind another thread's send waits on drainCv_ until that flusher
 * swaps them out — the same stall as a worker blocked in send().  A
 * thread never waits on its own flush: the commit thread appends a
 * whole batch of acks before it flushes the connections it took.
 */
class ResponseWriter
{
  public:
    /** Pending bytes at which a non-flushing appender waits. */
    static constexpr std::size_t kMaxPendingBytes = 64 * 1024;

    /**
     * @p stream outlives the writer.  @p sends counts write() calls
     * and @p bytesOut the bytes handed to them (serve.sends and
     * serve.bytes_out under the server).
     */
    ResponseWriter(ByteStream &stream, obs::Counter sends,
                   obs::Counter bytesOut);

    ResponseWriter(const ResponseWriter &) = delete;
    ResponseWriter &operator=(const ResponseWriter &) = delete;

    /**
     * Encode @p resp behind the pending bytes.  True when the calling
     * thread just became the flusher and must call flush(); false
     * when a flusher (possibly this thread) already holds the role.
     */
    bool append(const Response &resp);

    /** Flusher only: write until nothing is pending, then resign. */
    void flush();

    /** append(), then flush() if that made this thread the flusher. */
    void
    send(const Response &resp)
    {
        if (append(resp))
            flush();
    }

  private:
    ByteStream &stream_;
    obs::Counter sends_;
    obs::Counter bytesOut_;

    Mutex mu_;
    std::condition_variable_any drainCv_; //!< waits on mu_
    /** Encoded responses not yet handed to write(), in append order. */
    std::vector<std::uint8_t> pending_ ENVY_GUARDED_BY(mu_);
    /** The thread sending for this connection; id() when none. */
    std::thread::id flusher_ ENVY_GUARDED_BY(mu_);
    /** The bytes of the write in progress.  Owned by the flusher, not
     *  mu_: only the thread holding the role touches it. */
    std::vector<std::uint8_t> outbox_;
};

class Server
{
  public:
    /**
     * @p store and @p engine outlive the server.  Registers serve.*
     * metrics with the store's registry and chains onto the
     * controller's backpressure hook (restored on destruction).
     */
    Server(EnvyStore &store, KvEngine &engine, const ServeConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Adopt a connection.  Threaded mode starts its reader here. */
    void attach(ByteStreamPtr stream);

    /**
     * Pump mode only: drain buffered bytes on every attached
     * connection and execute the complete requests inline.  Returns
     * the number of requests handled (including sheds); call until 0
     * for a quiesce.
     */
    std::size_t pump();

    /** Stop readers and workers, close every connection, join. */
    void stop();

    const ServeConfig &config() const { return cfg_; }

    /** Outstanding admitted requests (threaded mode). */
    std::size_t queueDepth() const;

    /** True while the controller's backpressure signal is latched. */
    bool backpressureActive() const
    {
        return backpressure_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        Conn(ByteStreamPtr s, obs::Counter sends, obs::Counter bytesOut)
            : stream(std::move(s)), writer(*stream, sends, bytesOut)
        {}

        ByteStreamPtr stream;
        ResponseWriter writer; //!< every response leaves through it
        FrameDecoder decoder;
        std::thread reader;   //!< threaded mode only
        bool dead = false;    //!< protocol error or peer close
    };
    using ConnPtr = std::shared_ptr<Conn>;

    struct Work
    {
        ConnPtr conn;
        Request req;
        Admission admission = Admission::Direct;
    };

    /** A mutated response parked until its journal flush epoch. */
    struct PendingAck
    {
        ConnPtr conn;
        Response resp;
    };

    void readerLoop(ConnPtr conn);
    /** Decode and route every buffered frame; false on dead conn. */
    bool drainConn(const ConnPtr &conn, std::span<const std::uint8_t> bytes,
                   std::size_t *handled);
    /** Admission + dispatch for one decoded request. */
    void routeRequest(const ConnPtr &conn, Request &&req);
    /** Execute and respond (worker thread or pump). */
    void executeAndRespond(const ConnPtr &conn, const Request &req,
                           Admission admission);
    Response execute(const Request &req);
    void respond(const ConnPtr &conn, const Response &resp,
                 bool mutated);
    void workerLoop();
    /** Group-commit drain: batch -> one flush -> acks (PR 10). */
    void commitLoop();

    EnvyStore &store_;
    KvEngine &engine_;
    ServeConfig cfg_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> backpressure_{false};
    std::function<void()> prevHook_; //!< cleaner pool's poke, chained

    mutable Mutex connMu_;
    std::vector<ConnPtr> conns_ ENVY_GUARDED_BY(connMu_);

    mutable Mutex queueMu_;
    std::condition_variable_any workCv_; //!< waits on queueMu_
    std::deque<Work> queue_ ENVY_GUARDED_BY(queueMu_);
    std::vector<std::thread> workers_;

    // Group-commit durable acks (concurrent persistent store only):
    // workers park mutated responses here; commitLoop() drains a
    // batch, shares one journal flush, then writes the acks.
    bool groupCommit_ = false; //!< set once in the ctor
    mutable Mutex commitMu_;
    std::condition_variable_any commitCv_; //!< waits on commitMu_
    std::deque<PendingAck> commitQueue_ ENVY_GUARDED_BY(commitMu_);
    bool commitStop_ ENVY_GUARDED_BY(commitMu_) = false;
    std::thread commitThread_;

    // serve.* instrumentation (docs/OBSERVABILITY.md).
    obs::Counter metRequests_;
    obs::Counter metBatchOps_;
    obs::Counter metShed_;
    obs::Counter metQueued_;
    obs::Counter metAdmitted_;
    obs::Counter metBackpressureSignals_;
    obs::Counter metBytesIn_;
    obs::Counter metBytesOut_;
    obs::Counter metSends_;
    obs::Counter metProtocolErrors_;
    obs::Counter metCommitBatches_;
    obs::Gauge metQueueDepth_;
    obs::Gauge metCommitQueue_;
    // Registry histograms are not thread-safe; every record goes
    // through this server-owned lock (metrics.hh file comment).
    Mutex histMu_;
    obs::Histogram metExecUs_ ENVY_GUARDED_BY(histMu_);
    obs::Histogram metCommitBatch_ ENVY_GUARDED_BY(histMu_);
};

} // namespace serve
} // namespace envy

#endif // ENVY_SERVE_SERVER_HH

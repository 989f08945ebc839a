/**
 * @file
 * envybench: the served eNVy store measured end to end and layer by
 * layer (envybench/README.md).
 *
 * One process stands up EnvyStore + KvEngine + serve::Server behind
 * the TCP transport envy_served uses, drives it over four pipelined
 * connections from its own generator, checks every answer, and
 * reports named metrics.  Nothing here changes program code: every
 * per-layer number comes from timing calls into public functions or
 * from deltas of the store's MetricsRegistry.
 */

#ifndef ENVYBENCH_BENCH_HH
#define ENVYBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <ctime>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "sim/random.hh"
#include "workload/zipf.hh"

namespace envybench {

using Clock = std::chrono::steady_clock;

/** CPU seconds of @p clock (a thread or process CPU clock). */
double cpuSeconds(clockid_t clock);

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Connections (one generator thread each); fixed on every host. */
constexpr unsigned kConnections = 4;

// ---- workloads ----------------------------------------------------

enum class Traffic
{
    Zipf, //!< single GET/PUT requests over a zipf(0.99) population
    Tpca, //!< one 6-op Batch per TPC-A transaction
};

struct WorkloadSpec
{
    const char *name;
    Traffic traffic;
    /** Zipf population, or TPC-A accounts. */
    std::uint64_t keys;
    /** Zipf only: share of requests that are PUTs. */
    double putFrac;
    std::uint32_t valueBytes;
    /** Persistent store with durable + sync acks (persist/). */
    bool durable;
    /** Open phase: requests/s offered over all connections. */
    double openRate;
    /** Closed phase: requests in flight per connection. */
    unsigned window;
    /** TPC-A only. */
    std::uint32_t branches;
    std::uint32_t tellersPerBranch;
};

const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(std::string_view name);

/** Key numbering and the one writing connection of every key. */
class KeySpace
{
  public:
    explicit KeySpace(const WorkloadSpec &spec);

    std::uint64_t size() const { return size_; }
    unsigned owner(std::uint64_t key) const;

    // TPC-A layout: accounts, then tellers, then branches.
    std::uint64_t accountsPerBranch() const { return perBranch_; }
    std::uint64_t tellerKey(std::uint64_t branch,
                            std::uint64_t teller) const;
    std::uint64_t branchKey(std::uint64_t branch) const;

  private:
    const WorkloadSpec &spec_;
    std::uint64_t size_ = 0;
    std::uint64_t perBranch_ = 0;
};

/** One key access of a generated request. */
struct Access
{
    envy::serve::Op op = envy::serve::Op::Get;
    std::uint64_t key = 0;
    std::int64_t delta = 0; //!< TPC-A balance change (PUT only)
};

struct GenRequest
{
    bool batch = false;
    std::vector<Access> ops;
};

/** 64-bit seed for stream @p stream of run seed @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * The deterministic request stream of one connection: the same seed
 * gives the same requests.  GET keys are drawn over the whole
 * population; PUT keys only among the connection's own keys.
 */
class OpStream
{
  public:
    OpStream(const WorkloadSpec &spec, const KeySpace &keys,
             unsigned conn, std::uint64_t seed);

    GenRequest next();

  private:
    std::uint64_t ownKey(std::uint64_t rank) const;
    bool recentlyWritten(std::uint64_t key) const;
    void remember(const GenRequest &req);

    const WorkloadSpec &spec_;
    const KeySpace &keys_;
    unsigned conn_;
    envy::Rng rng_;
    std::unique_ptr<envy::ZipfPicker> zipf_;
    std::deque<std::vector<std::uint64_t>> recent_;
    std::unordered_map<std::uint64_t, unsigned> recentCount_;
};

// ---- values and the answer ledger ----------------------------------

/** What a stored value carries; checksummed on the wire. */
struct ValueFields
{
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::int64_t balance = 0;
};

/** Encode @p f into @p bytes bytes (>= 16; balance needs >= 24). */
std::string encodeValue(const ValueFields &f, std::size_t bytes);
/** False when the size or checksum is wrong. */
bool decodeValue(std::string_view bytes, ValueFields &out);

/**
 * Per-key versions shared by all connections.  Only a key's owner
 * writes it, with at most one write in flight, so a read issued after
 * the owner saw version A acked and answered before the owner sent
 * version S must return a version in [A, S].
 */
class Ledger
{
  public:
    Ledger(std::uint64_t keys, std::uint32_t valueBytes);

    /** Back to the prefill state: version 1, balance 0, everywhere. */
    void reset();
    std::string prefillValue(std::uint64_t key) const;

    std::uint32_t acked(std::uint64_t key) const
    {
        return acked_[key].load(std::memory_order_acquire);
    }
    std::uint32_t sent(std::uint64_t key) const
    {
        return sent_[key].load(std::memory_order_acquire);
    }
    bool writeInFlight(std::uint64_t key) const
    {
        return sent(key) != acked(key);
    }

    /** Owner only: the next version's value, published as sent. */
    std::string beginWrite(std::uint64_t key, std::int64_t delta);
    /** Owner only: the write begun last on @p key was answered. */
    void endWrite(std::uint64_t key, bool ok);

    /**
     * Check a read of @p key: decodable, the right key, version in
     * [lo, hi].  @p why names the first failure.
     */
    bool checkRead(std::uint64_t key, std::string_view value,
                   std::uint32_t lo, std::uint32_t hi,
                   std::string *why) const;
    /** Check that @p value is the last acknowledged write of @p key. */
    bool checkFinal(std::uint64_t key, std::string_view value,
                    std::string *why) const;

    std::uint32_t valueBytes() const { return valueBytes_; }

  private:
    std::uint32_t valueBytes_;
    std::vector<std::atomic<std::uint32_t>> sent_;
    std::vector<std::atomic<std::uint32_t>> acked_;
    // Owner-private: guarded by the one-write-in-flight protocol.
    std::vector<std::int64_t> pendingBalance_;
    std::vector<std::int64_t> balance_;
};

// ---- the timing stream wrapper (traced runs) -----------------------

struct StampEvent
{
    std::uint64_t requestId = 0;
    std::int64_t ns = 0;
};

/** Frame boundary tracker over a byte stream of protocol frames. */
class FrameTracker
{
  public:
    /** Feed bytes; append {requestId, @p ns} for each frame ending. */
    void feed(std::span<const std::uint8_t> bytes, std::int64_t ns,
              std::vector<StampEvent> &out);

  private:
    std::uint8_t header_[envy::serve::kHeaderBytes] = {};
    std::size_t headerHave_ = 0;
    std::uint64_t payloadLeft_ = 0;
    std::uint64_t id_ = 0;
};


/**
 * A ByteStream that timestamps every frame: the moment a write of a
 * frame starts, and the moment a read returns a frame's last byte.
 * Events stay in memory until the run ends.  Writes are serialised by
 * the ByteStream contract and there is one reader, so each event list
 * has one writer at a time.
 */
class TimedStream : public envy::serve::ByteStream
{
  public:
    explicit TimedStream(envy::serve::ByteStreamPtr inner);

    std::size_t read(std::span<std::uint8_t> out, bool block) override;
    void write(std::span<const std::uint8_t> in) override;
    void close() override { inner_->close(); }
    bool closed() const override { return inner_->closed(); }

    const std::vector<StampEvent> &reads() const { return reads_; }
    const std::vector<StampEvent> &writes() const { return writes_; }

  private:
    envy::serve::ByteStreamPtr inner_;
    FrameTracker readTracker_;
    FrameTracker writeTracker_;
    std::vector<StampEvent> reads_;
    std::vector<StampEvent> writes_;
};

// ---- connections and phases -----------------------------------------

enum class OpClass
{
    Get,
    Put,
    Txn,
};

/** One correct answer: when its request was due, when it came back. */
struct Sample
{
    std::int64_t dueNs = 0; //!< open: scheduled send; closed: send
    std::int64_t doneNs = 0;
    OpClass cls = OpClass::Get;
};

/** What one connection saw in one phase. */
struct PhaseStats
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;     //!< non-Ok, shed, or failed check
    std::uint64_t holds = 0;      //!< sends held for an in-flight write
    std::uint64_t requestsDone = 0;
    std::uint64_t mutatingAcked = 0;
    std::uint64_t putOpsAcked = 0;
    std::uint64_t putBytesAcked = 0;
    std::vector<Sample> samples;
    std::vector<double> lateUs;   //!< open phase send - schedule
    std::vector<std::string> errors;
};

enum class PhaseKind
{
    Closed,
    Open,
};

/**
 * One client connection: the generator runs on the phase's thread,
 * a receiver thread collects, times and checks the answers.
 */
class Connection
{
  public:
    Connection(unsigned index, envy::serve::ByteStreamPtr stream,
               const WorkloadSpec &spec, Ledger &ledger,
               OpStream &ops, bool tamper);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Keep spec.window requests in flight until @p end, then drain. */
    void runClosed(Clock::time_point end, PhaseStats &st);
    /** Send on an exponential schedule at @p rate until @p end. */
    void runOpen(Clock::time_point end, double rate,
                 std::uint64_t seed, PhaseStats &st);

    /** The id the next request will carry (between phases only). */
    std::uint64_t nextRequestId() const { return client_.sent(); }
    /** Answers whose requestId matched nothing sent. */
    std::uint64_t strayAnswers() const;
    /** CPU seconds the receiver thread has used so far. */
    double receiverCpuSeconds() const;

    /** Close the stream and join the receiver. */
    void shutdown();

  private:
    struct Pending
    {
        PhaseStats *stats = nullptr;
        bool open = false;
        std::int64_t deadlineNs = 0;
        std::int64_t schedNs = 0;
        GenRequest req;
        std::vector<std::uint32_t> lo;    //!< per GET: acked at send
        std::vector<std::uint32_t> exact; //!< per GET: 0 or exact hi
    };

    void send(const GenRequest &req, std::int64_t schedNs, bool open,
              std::int64_t deadlineNs, PhaseStats &st);
    bool writesBusy(const GenRequest &req) const;
    /** Wait for the key's in-flight write; false on timeout. */
    bool holdForWrites(std::unique_lock<std::mutex> &lk,
                       const GenRequest &req, PhaseStats &st);
    void drain(PhaseStats &st);
    void receiverLoop();
    void settle(Pending &p, envy::serve::Response &resp,
                std::int64_t recvNs);
    bool checkGet(const Pending &p, std::size_t i, std::uint64_t key,
                  envy::serve::Status status, std::string &value,
                  std::string *why);

    unsigned index_;
    const WorkloadSpec &spec_;
    Ledger &ledger_;
    OpStream &ops_;
    bool tamper_;
    bool tampered_ = false;
    envy::serve::KvClient client_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t stray_ = 0;
    // Last: started in the constructor, after everything it reads.
    std::thread receiver_;
    clockid_t receiverClock_ = CLOCK_THREAD_CPUTIME_ID;
};

} // namespace envybench

#endif // ENVYBENCH_BENCH_HH

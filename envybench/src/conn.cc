#include "bench.hh"

#include <pthread.h>
#include <sys/prctl.h>

namespace envybench {

using envy::serve::Op;
using envy::serve::Response;
using envy::serve::Status;
using envy::serve::SubOp;

namespace {

// Longest a sender waits for one answer before it reports the server
// stuck; far above any latency a healthy run shows.
constexpr auto kStuck = std::chrono::seconds(60);

OpClass
classOf(const GenRequest &req)
{
    if (req.batch)
        return OpClass::Txn;
    return req.ops[0].op == Op::Put ? OpClass::Put : OpClass::Get;
}

bool
mutates(const GenRequest &req)
{
    for (const Access &a : req.ops)
        if (a.op == Op::Put)
            return true;
    return false;
}

bool
writes(const GenRequest &req, std::uint64_t key)
{
    for (const Access &a : req.ops)
        if (a.op == Op::Put && a.key == key)
            return true;
    return false;
}

void
note(PhaseStats &st, std::string why)
{
    if (st.errors.size() < 8)
        st.errors.push_back(std::move(why));
}

} // namespace

Connection::Connection(unsigned index, envy::serve::ByteStreamPtr stream,
                       const WorkloadSpec &spec, Ledger &ledger,
                       OpStream &ops, bool tamper)
    : index_(index), spec_(spec), ledger_(ledger), ops_(ops),
      tamper_(tamper), client_(std::move(stream))
{
    receiver_ = std::thread([this] { receiverLoop(); });
    ::pthread_getcpuclockid(receiver_.native_handle(), &receiverClock_);
}

Connection::~Connection()
{
    shutdown();
}

void
Connection::shutdown()
{
    client_.close();
    if (receiver_.joinable())
        receiver_.join();
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
Connection::receiverCpuSeconds() const
{
    return cpuSeconds(receiverClock_);
}

std::uint64_t
Connection::strayAnswers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stray_;
}

bool
Connection::writesBusy(const GenRequest &req) const
{
    for (const Access &a : req.ops)
        if (a.op == Op::Put && ledger_.writeInFlight(a.key))
            return true;
    return false;
}

bool
Connection::holdForWrites(std::unique_lock<std::mutex> &lk,
                          const GenRequest &req, PhaseStats &st)
{
    if (!writesBusy(req))
        return true;
    st.holds++;
    if (cv_.wait_for(lk, kStuck, [&] { return !writesBusy(req); }))
        return true;
    note(st, "conn " + std::to_string(index_) +
                 ": a write never got its answer");
    return false;
}

void
Connection::send(const GenRequest &req, std::int64_t schedNs, bool open,
                 std::int64_t deadlineNs, PhaseStats &st)
{
    Pending p;
    p.stats = &st;
    p.open = open;
    p.deadlineNs = deadlineNs;
    p.schedNs = schedNs;
    p.req = req;
    std::vector<SubOp> subs;
    for (const Access &a : req.ops) {
        SubOp sub;
        sub.op = a.op;
        sub.key = a.key;
        if (a.op == Op::Get) {
            const std::uint32_t lo = ledger_.acked(a.key);
            p.lo.push_back(lo);
            // A batch's reads run before its own writes to the same
            // keys, which have no other write in flight: exact.
            p.exact.push_back(req.batch && writes(req, a.key) ? lo : 0);
        } else {
            sub.value = ledger_.beginWrite(a.key, a.delta);
        }
        subs.push_back(std::move(sub));
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        pending_.emplace(client_.sent(), std::move(p));
        st.attempted++;
    }
    if (req.batch)
        client_.sendBatch(std::move(subs));
    else if (subs[0].op == Op::Get)
        client_.sendGet(subs[0].key);
    else
        client_.sendPut(subs[0].key, subs[0].value);
}

void
Connection::drain(PhaseStats &st)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, kStuck, [&] { return pending_.empty(); }))
        return;
    // Never answered: each one failed.  An answer that still arrives
    // later matches nothing and counts as stray.
    st.failed += pending_.size();
    note(st, "conn " + std::to_string(index_) + ": " +
                 std::to_string(pending_.size()) + " requests never answered");
    pending_.clear();
}

void
Connection::runClosed(Clock::time_point end, PhaseStats &st)
{
    const std::int64_t endNs = std::chrono::duration_cast<
        std::chrono::nanoseconds>(end.time_since_epoch()).count();
    for (;;) {
        const GenRequest req = ops_.next();
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (!cv_.wait_until(lk, end, [&] {
                    return pending_.size() < spec_.window;
                }))
                break;
            if (!holdForWrites(lk, req, st))
                break;
        }
        if (Clock::now() >= end)
            break;
        send(req, nowNs(), false, endNs, st);
    }
    drain(st);
}

void
Connection::runOpen(Clock::time_point end, double rate,
                    std::uint64_t seed, PhaseStats &st)
{
    // Wake on time: the default 50 us timer slack would make every
    // send late by up to that much.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    envy::Rng rng(seed);
    const double meanNs = 1e9 / rate;
    const std::int64_t endNs = std::chrono::duration_cast<
        std::chrono::nanoseconds>(end.time_since_epoch()).count();
    std::int64_t due = nowNs();
    for (;;) {
        due += static_cast<std::int64_t>(rng.exponential(meanNs));
        if (due >= endNs)
            break;
        const GenRequest req = ops_.next();
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::nanoseconds(due))));
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (!holdForWrites(lk, req, st))
                break;
        }
        const std::int64_t at = nowNs();
        st.lateUs.push_back(static_cast<double>(at - due) / 1e3);
        send(req, due, true, endNs, st);
    }
    drain(st);
}

void
Connection::receiverLoop()
{
    Response resp;
    while (client_.recv(resp, true)) {
        const std::int64_t recvNs = nowNs();
        std::lock_guard<std::mutex> lk(mu_);
        auto it = pending_.find(resp.requestId);
        if (it == pending_.end()) {
            stray_++;
            continue;
        }
        Pending p = std::move(it->second);
        pending_.erase(it);
        settle(p, resp, recvNs);
        cv_.notify_all();
    }
}

bool
Connection::checkGet(const Pending &p, std::size_t i, std::uint64_t key,
                     Status status, std::string &value, std::string *why)
{
    if (status != Status::Ok) {
        *why = "GET key " + std::to_string(key) + ": status " +
               envy::serve::statusName(status);
        return false;
    }
    const std::uint32_t hi = p.exact[i] ? p.exact[i] : ledger_.sent(key);
    if (tamper_ && !tampered_) {
        // A well-formed, checksummed answer from the future: only the
        // version check can catch it.
        tampered_ = true;
        value = encodeValue({key, hi + 1, 0}, value.size());
    }
    return ledger_.checkRead(key, value, p.lo[i], hi, why);
}

void
Connection::settle(Pending &p, Response &resp, std::int64_t recvNs)
{
    PhaseStats &st = *p.stats;
    const GenRequest &req = p.req;
    bool ok = true;
    std::string why;
    const bool whole = resp.status == Status::Ok &&
                       (!req.batch || resp.ops.size() == req.ops.size());
    if (!whole) {
        ok = false;
        why = std::string("request status ") +
              envy::serve::statusName(resp.status);
    }
    std::size_t gi = 0;
    std::uint64_t puts = 0;
    for (std::size_t i = 0; i < req.ops.size(); i++) {
        const Access &a = req.ops[i];
        Status s = resp.status;
        std::string *value = &resp.value;
        if (req.batch && whole) {
            s = resp.ops[i].status;
            value = &resp.ops[i].value;
        }
        if (a.op == Op::Get) {
            std::string w;
            if (whole && !checkGet(p, gi, a.key, s, *value, &w)) {
                ok = false;
                why = w;
            }
            gi++;
            continue;
        }
        const bool landed = whole && s == Status::Ok;
        ledger_.endWrite(a.key, landed);
        if (landed) {
            puts++;
        } else if (whole) {
            ok = false;
            why = "PUT key " + std::to_string(a.key) + ": status " +
                  envy::serve::statusName(s);
        }
    }
    st.requestsDone++;
    st.putOpsAcked += puts;
    st.putBytesAcked += puts * ledger_.valueBytes();
    if (!ok) {
        st.failed++;
        note(st, "conn " + std::to_string(index_) + ": " + why);
        return;
    }
    if (mutates(req))
        st.mutatingAcked++;
    if (recvNs <= p.deadlineNs || p.open)
        st.samples.push_back({p.schedNs, recvNs, classOf(req)});
}

} // namespace envybench

#include "bench.hh"

#include <stdexcept>

namespace envybench {

using envy::serve::Op;

/**
 * A connection never writes one key twice within this many of its
 * own consecutive requests.  The server may execute one connection's
 * pipelined requests in any order, so two writes to a key in flight
 * at once could land out of order; the spacing makes that rare and
 * the sender's hold (Connection) makes it impossible.
 */
constexpr std::size_t kWriteSpacing = 64;

const std::vector<WorkloadSpec> &
workloads()
{
    // Sizes are relative to the 1 MiB SRAM write buffer of
    // kvGeometryFor (~224 B of store per key).  Open rates sit well
    // under the closed-phase capacity on a 4-vCPU host, so the open
    // phase measures latency, not a growing queue.  README.md gives
    // the reasoning per workload.
    static const std::vector<WorkloadSpec> specs = {
        // 4096 keys x ~224 B fits the write buffer: request path only.
        {"zipf-hot", Traffic::Zipf, 4096, 0.10, 64, false, 4000.0, 16,
         0, 0},
        // 262144 accounts, ~56x the write buffer: COW, flush, clean.
        {"tpca-large", Traffic::Tpca, 262144, 0.0, 100, false, 500.0,
         8, 1024, 10},
        // Writes only, acked after a journal epoch and fdatasync.
        {"put-durable", Traffic::Zipf, 65536, 1.0, 16, true, 1000.0, 16,
         0, 0},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &s : workloads())
        if (name == s.name)
            return &s;
    return nullptr;
}

KeySpace::KeySpace(const WorkloadSpec &spec) : spec_(spec)
{
    if (spec.traffic == Traffic::Zipf) {
        if (spec.keys % kConnections != 0)
            throw std::invalid_argument("zipf population not a "
                                        "multiple of the connections");
        size_ = spec.keys;
        return;
    }
    if (spec.branches % kConnections != 0 ||
        spec.keys % spec.branches != 0)
        throw std::invalid_argument("TPC-A branches must split the "
                                    "accounts and the connections");
    perBranch_ = spec.keys / spec.branches;
    size_ = spec.keys +
            std::uint64_t{spec.branches} * spec.tellersPerBranch +
            spec.branches;
}

unsigned
KeySpace::owner(std::uint64_t key) const
{
    if (spec_.traffic == Traffic::Zipf)
        return static_cast<unsigned>(key % kConnections);
    const std::uint64_t tellers =
        std::uint64_t{spec_.branches} * spec_.tellersPerBranch;
    std::uint64_t branch;
    if (key < spec_.keys)
        branch = key / perBranch_;
    else if (key < spec_.keys + tellers)
        branch = (key - spec_.keys) / spec_.tellersPerBranch;
    else
        branch = key - spec_.keys - tellers;
    return static_cast<unsigned>(branch % kConnections);
}

std::uint64_t
KeySpace::tellerKey(std::uint64_t branch, std::uint64_t teller) const
{
    return spec_.keys + branch * spec_.tellersPerBranch + teller;
}

std::uint64_t
KeySpace::branchKey(std::uint64_t branch) const
{
    return spec_.keys +
           std::uint64_t{spec_.branches} * spec_.tellersPerBranch +
           branch;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over the pair, so nearby seeds give unrelated streams.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream +
                      0xD1B54A32D192ED03ull;
    for (int i = 0; i < 2; i++) {
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
    }
    return z;
}

OpStream::OpStream(const WorkloadSpec &spec, const KeySpace &keys,
                   unsigned conn, std::uint64_t seed)
    : spec_(spec), keys_(keys), conn_(conn),
      rng_(deriveSeed(seed, 100 + conn))
{
    if (spec.traffic == Traffic::Zipf)
        zipf_ = std::make_unique<envy::ZipfPicker>(spec.keys, 0.99);
}

std::uint64_t
OpStream::ownKey(std::uint64_t rank) const
{
    return rank - rank % kConnections + conn_;
}

bool
OpStream::recentlyWritten(std::uint64_t key) const
{
    return recentCount_.count(key) != 0;
}

void
OpStream::remember(const GenRequest &req)
{
    std::vector<std::uint64_t> written;
    for (const Access &a : req.ops)
        if (a.op == Op::Put) {
            written.push_back(a.key);
            recentCount_[a.key]++;
        }
    recent_.push_back(std::move(written));
    if (recent_.size() <= kWriteSpacing)
        return;
    for (std::uint64_t key : recent_.front()) {
        auto it = recentCount_.find(key);
        if (--it->second == 0)
            recentCount_.erase(it);
    }
    recent_.pop_front();
}

GenRequest
OpStream::next()
{
    // Redraws keep a connection's writes kWriteSpacing requests
    // apart; the cap only bounds the loop (Connection holds anyway).
    constexpr int kMaxRedraws = 1000;
    GenRequest req;
    if (spec_.traffic == Traffic::Zipf) {
        if (rng_.chance(spec_.putFrac)) {
            std::uint64_t key = ownKey(zipf_->pick(rng_));
            for (int i = 0; i < kMaxRedraws && recentlyWritten(key); i++)
                key = ownKey(zipf_->pick(rng_));
            req.ops.push_back({Op::Put, key, 0});
        } else {
            req.ops.push_back({Op::Get, zipf_->pick(rng_), 0});
        }
    } else {
        // TPC-A: read and update account, teller and branch.  The
        // account is uniform over the connection's own branches; its
        // branch and one of that branch's tellers come with it.
        const std::uint64_t ownBranches = spec_.branches / kConnections;
        std::uint64_t branch = 0;
        for (int i = 0; i < kMaxRedraws; i++) {
            branch = rng_.below(ownBranches) * kConnections + conn_;
            if (!recentlyWritten(keys_.branchKey(branch)))
                break;
        }
        const std::uint64_t per = keys_.accountsPerBranch();
        const std::uint64_t keys[3] = {
            branch * per + rng_.below(per),
            keys_.tellerKey(branch, rng_.below(spec_.tellersPerBranch)),
            keys_.branchKey(branch)};
        const std::int64_t delta =
            static_cast<std::int64_t>(rng_.below(199999)) - 99999;
        req.batch = true;
        for (std::uint64_t k : keys)
            req.ops.push_back({Op::Get, k, 0});
        for (std::uint64_t k : keys)
            req.ops.push_back({Op::Put, k, delta});
    }
    remember(req);
    return req;
}

} // namespace envybench

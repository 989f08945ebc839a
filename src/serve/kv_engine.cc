#include "serve/kv_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace envy {
namespace serve {

namespace {

constexpr Addr kMagicOff = 0x00;
constexpr Addr kVersionOff = 0x08;
constexpr Addr kNumShardsOff = 0x0C;
constexpr Addr kValueCapOff = 0x10;
constexpr Addr kShardBytesOff = 0x18;

constexpr Addr kKeysOff = 0;
constexpr Addr kCursorOff = 8;
constexpr Addr kFreeOff = 16; //!< head of the freed-slot list (0 = end)

} // namespace

std::uint64_t
KvEngine::mix(std::uint64_t key)
{
    // splitmix64 finalizer: spreads adjacent keys across shards.
    std::uint64_t z = key + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

KvEngine::KvEngine(EnvyStore &store, const KvEngineConfig &cfg)
    : store_(store), cfg_(cfg)
{
    ENVY_ASSERT(cfg_.numShards > 0 &&
                    (cfg_.numShards & (cfg_.numShards - 1)) == 0,
                "serve: numShards must be a power of two, got ",
                cfg_.numShards);
    ENVY_ASSERT(cfg_.treeFraction > 0.0 && cfg_.treeFraction < 1.0,
                "serve: treeFraction out of (0,1)");
    ENVY_ASSERT(cfg_.valueCapBytes >= 4,
                "serve: slots must fit the free-list next pointer");
    ENVY_ASSERT(store_.size() > kShardBase,
                "serve: store too small for the engine header");
    shardBytes_ = (store_.size() - kShardBase) / cfg_.numShards;
    shardBytes_ -= shardBytes_ % 64;
    ENVY_ASSERT(shardBytes_ > kShardHeaderBytes + 2 * BTree::nodeBytes +
                                 4 + cfg_.valueCapBytes,
                "serve: shards of ", shardBytes_,
                " bytes are too small for a tree and one slot");

    store_.writeU64(kMagicOff, kMagic);
    store_.writeU32(kVersionOff, kVersion);
    store_.writeU32(kNumShardsOff, cfg_.numShards);
    store_.writeU32(kValueCapOff, cfg_.valueCapBytes);
    store_.writeU64(kShardBytesOff, shardBytes_);

    for (std::uint32_t s = 0; s < cfg_.numShards; s++) {
        Shard &sh = shards_.emplace_back();
        layoutShard(sh, s);
        const std::uint64_t tree_bytes = sh.heapBase -
                                         (sh.base + kShardHeaderBytes);
        sh.tree = std::make_unique<BTree>(
            store_, sh.base + kShardHeaderBytes, tree_bytes);
        store_.writeU64(sh.base + kKeysOff, 0);
        store_.writeU64(sh.base + kCursorOff, sh.heapBase);
        store_.writeU64(sh.base + kFreeOff, 0);
    }
}

KvEngine::KvEngine(EnvyStore &store, const KvEngineConfig &cfg,
                   OpenTag)
    : store_(store), cfg_(cfg)
{
    shardBytes_ = (store_.size() - kShardBase) / cfg_.numShards;
    shardBytes_ -= shardBytes_ % 64;
    for (std::uint32_t s = 0; s < cfg_.numShards; s++) {
        Shard &sh = shards_.emplace_back();
        layoutShard(sh, s);
        const std::uint64_t tree_bytes = sh.heapBase -
                                         (sh.base + kShardHeaderBytes);
        sh.tree = std::make_unique<BTree>(BTree::open(
            store_, sh.base + kShardHeaderBytes, tree_bytes));
        const Addr cursor = store_.readU64(sh.base + kCursorOff);
        ENVY_ASSERT(cursor >= sh.heapBase && cursor <= sh.heapEnd,
                    "serve: shard ", s, " cursor ", cursor,
                    " outside its heap — corrupt engine header");
        const Addr free_head = store_.readU64(sh.base + kFreeOff);
        ENVY_ASSERT(free_head == 0 || (free_head >= sh.heapBase &&
                                       free_head < sh.heapEnd),
                    "serve: shard ", s, " free-list head ", free_head,
                    " outside its heap — corrupt engine header");
    }
}

void
KvEngine::layoutShard(Shard &s, std::uint32_t index)
{
    s.base = kShardBase + std::uint64_t{index} * shardBytes_;
    std::uint64_t tree_bytes = static_cast<std::uint64_t>(
        cfg_.treeFraction *
        static_cast<double>(shardBytes_ - kShardHeaderBytes));
    tree_bytes -= tree_bytes % BTree::nodeBytes;
    // The tree keeps a header inside its region; budgeting a full
    // kShardHeaderBytes for it (it is smaller) errs on the safe
    // side of the index-full check in put().
    s.treeCapacityNodes = (tree_bytes - kShardHeaderBytes) /
                          BTree::nodeBytes;
    s.heapBase = s.base + kShardHeaderBytes + tree_bytes;
    s.heapEnd = s.base + shardBytes_;
}

std::unique_ptr<KvEngine>
KvEngine::open(EnvyStore &store)
{
    ENVY_ASSERT(store.size() > kShardBase,
                "serve: store too small to hold an engine");
    const std::uint64_t magic = store.readU64(kMagicOff);
    ENVY_ASSERT(magic == kMagic,
                "serve: no kv engine in this store (magic ",
                magic, ")");
    const std::uint32_t version = store.readU32(kVersionOff);
    ENVY_ASSERT(version == kVersion, "serve: engine version ",
                version, ", expected ", kVersion);
    KvEngineConfig cfg;
    cfg.numShards = store.readU32(kNumShardsOff);
    cfg.valueCapBytes = store.readU32(kValueCapOff);
    ENVY_ASSERT(cfg.numShards > 0 && cfg.numShards <= 4096,
                "serve: implausible shard count ", cfg.numShards);
    const std::uint64_t shard_bytes = store.readU64(kShardBytesOff);
    ENVY_ASSERT(shard_bytes ==
                    ((store.size() - kShardBase) / cfg.numShards) -
                        (((store.size() - kShardBase) /
                          cfg.numShards) % 64),
                "serve: stored shardBytes ", shard_bytes,
                " does not match the store size");
    // envy-analyze: allow(no-raw-alloc) tag ctor is private to the class
    KvEngine *eng = new KvEngine(store, cfg, OpenTag{});
    return std::unique_ptr<KvEngine>(eng);
}

bool
KvEngine::present(EnvyStore &store)
{
    return store.size() > kShardBase &&
           store.readU64(kMagicOff) == kMagic &&
           store.readU32(kVersionOff) == kVersion;
}

Geometry
kvGeometryFor(std::uint64_t keys)
{
    Geometry g;
    g.pageSize = 256;
    g.blockBytes = 64 * KiB; // 16 MB segments, 65536 pages each
    const std::uint64_t logical_bytes =
        std::max<std::uint64_t>(keys * 224, 48 * MiB);
    // ~70% utilization, plus the reserve segment the geometry
    // validator demands for cleaning headroom.
    const std::uint64_t segment_bytes = g.segmentBytes().value();
    const std::uint64_t segments =
        std::max<std::uint64_t>(
            4, (logical_bytes * 10 / 7 + segment_bytes - 1) /
                   segment_bytes) +
        1;
    g.numBanks = 4;
    g.blocksPerChip =
        static_cast<std::uint32_t>((segments + 3) / 4);
    g.logicalPages = logical_bytes / g.pageSize;
    g.writeBufferPages = 4096; // 1 MB battery-backed buffer
    return g;
}

KvEngine::Shard &
KvEngine::shardOf(std::uint64_t key)
{
    return shards_[mix(key) & (cfg_.numShards - 1)];
}

KvEngine::GetResult
KvEngine::get(std::uint64_t key)
{
    Shard &sh = shardOf(key);
    MutexLock lock(sh.mu);
    GetResult res;
    const auto at = sh.tree->lookup(key);
    if (!at || *at == 0)
        return res; // absent or tombstone
    const std::uint32_t len = store_.readU32(*at);
    if (len > cfg_.valueCapBytes) {
        res.status = Status::Error; // slot corrupt; fail the read
        return res;
    }
    res.status = Status::Ok;
    res.value.resize(len);
    store_.read(*at + 4,
                {reinterpret_cast<std::uint8_t *>(res.value.data()),
                 res.value.size()});
    return res;
}

Addr
KvEngine::allocSlot(Shard &sh)
{
    // Freed slots first: their first word holds the next-free link.
    // The pop is a single word write; a crash right after it leaks
    // at most this one slot.
    const Addr head = store_.readU64(sh.base + kFreeOff);
    if (head != 0) {
        store_.writeU64(sh.base + kFreeOff, store_.readU64(head));
        return head;
    }
    const Addr cursor = store_.readU64(sh.base + kCursorOff);
    const std::uint64_t slot_bytes =
        4 + std::uint64_t{cfg_.valueCapBytes};
    if (cursor + slot_bytes > sh.heapEnd)
        return 0; // heap full
    // Burn the cursor before the slot holds anything: a replayed
    // prefix that sees the slot referenced also sees the advance,
    // so it can never hand the same slot out again.
    store_.writeU64(sh.base + kCursorOff, cursor + slot_bytes);
    return cursor;
}

void
KvEngine::freeSlot(Shard &sh, Addr slot)
{
    // Only called once nothing references @p slot, so overwriting
    // its first word with the link is safe at any crash cut; a cut
    // between the two writes merely leaks the slot.
    store_.writeU64(slot, store_.readU64(sh.base + kFreeOff));
    store_.writeU64(sh.base + kFreeOff, slot);
}

Status
KvEngine::put(std::uint64_t key, std::span<const std::uint8_t> value)
{
    if (value.size() > cfg_.valueCapBytes)
        return Status::TooLarge;
    Shard &sh = shardOf(key);
    MutexLock lock(sh.mu);
    const auto at = sh.tree->lookup(key);
    const bool live = at && *at != 0;
    // Overwrites go to a fresh slot too: an in-place slot update is
    // a multi-page write the tree still points at, and a crash cut
    // inside it would tear the key's previously acknowledged value.
    // The old slot is recycled through the shard free list, so
    // storage stays bounded by the key count (plus one transient
    // slot per shard).
    if (!at && sh.tree->nodesAllocated() + 2 * sh.tree->height() + 6 >
                   sh.treeCapacityNodes) {
        return Status::Error; // index full
    }
    const Addr slot = allocSlot(sh);
    if (slot == 0)
        return Status::Error; // heap full
    store_.writeU32(slot, static_cast<std::uint32_t>(value.size()));
    if (!value.empty())
        store_.write(slot + 4, value);
    // The one-word tree publish is the commit point: before it the
    // new slot is unreachable, after it the key maps to the complete
    // new value.
    sh.tree->insert(key, slot);
    if (live) {
        freeSlot(sh, *at);
    } else {
        store_.writeU64(sh.base + kKeysOff,
                        store_.readU64(sh.base + kKeysOff) + 1);
    }
    return Status::Ok;
}

Status
KvEngine::del(std::uint64_t key)
{
    Shard &sh = shardOf(key);
    MutexLock lock(sh.mu);
    const auto at = sh.tree->lookup(key);
    if (!at || *at == 0)
        return Status::NotFound;
    sh.tree->insert(key, 0); // tombstone: a one-word value update
    freeSlot(sh, *at);
    store_.writeU64(sh.base + kKeysOff,
                    store_.readU64(sh.base + kKeysOff) - 1);
    return Status::Ok;
}

std::uint64_t
KvEngine::keyCount()
{
    std::uint64_t total = 0;
    for (Shard &sh : shards_) {
        MutexLock lock(sh.mu);
        total += store_.readU64(sh.base + kKeysOff);
    }
    return total;
}

} // namespace serve
} // namespace envy

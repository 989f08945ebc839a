/**
 * @file
 * End-to-end tests of the public EnvyStore interface, centred on a
 * randomized differential test against a plain byte-array reference
 * model while cleaning and wear-leveling churn underneath.
 */

#include <gtest/gtest.h>

#include <vector>

#include "envy/envy_store.hh"
#include "sim/random.hh"

namespace envy {
namespace {

EnvyConfig
churnConfig(PolicyKind policy)
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 32;
    cfg.policy = policy;
    cfg.partitionSize = 4;
    cfg.wearThreshold = 8; // exercise wear rotation too
    return cfg;
}

TEST(EnvyStore, SizeMatchesGeometry)
{
    EnvyStore store(churnConfig(PolicyKind::Hybrid));
    EXPECT_EQ(store.size(), store.config().geom.logicalBytes().value());
    EXPECT_GT(store.size(), 0u);
}

TEST(EnvyStore, WordHelpersRoundTrip)
{
    EnvyStore store(churnConfig(PolicyKind::Hybrid));
    store.writeU8(1, 0xAB);
    store.writeU32(100, 0xDEADBEEF);
    store.writeU64(200, 0x0123456789ABCDEFull);
    EXPECT_EQ(store.readU8(1), 0xAB);
    EXPECT_EQ(store.readU32(100), 0xDEADBEEFu);
    EXPECT_EQ(store.readU64(200), 0x0123456789ABCDEFull);
}

TEST(EnvyStore, FlushAllEmptiesBuffer)
{
    EnvyStore store(churnConfig(PolicyKind::Hybrid));
    for (int i = 0; i < 100; ++i)
        store.writeU32(i * 300, i);
    store.flushAll();
    EXPECT_TRUE(store.writeBuffer().empty());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(store.readU32(i * 300), std::uint32_t(i));
}

class StoreFuzz : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(StoreFuzz, MatchesReferenceModelUnderChurn)
{
    EnvyStore store(churnConfig(GetParam()));
    const std::uint64_t size = store.size();
    std::vector<std::uint8_t> ref(size, 0);
    Rng rng(2024);

    for (int op = 0; op < 30000; ++op) {
        const std::uint64_t len = rng.between(1, 64);
        const std::uint64_t addr = rng.below(size - len);
        if (rng.chance(0.6)) {
            std::uint8_t buf[64];
            for (std::uint64_t i = 0; i < len; ++i) {
                buf[i] = static_cast<std::uint8_t>(rng.next());
                ref[addr + i] = buf[i];
            }
            store.write(addr, {buf, len});
        } else {
            std::uint8_t buf[64];
            store.read(addr, {buf, len});
            for (std::uint64_t i = 0; i < len; ++i)
                ASSERT_EQ(buf[i], ref[addr + i])
                    << "mismatch at " << addr + i << " after " << op
                    << " ops";
        }
    }

    // Cleaning must actually have happened for this to mean much.
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);

    // Final sweep.
    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t a = 0; a < size; a += buf.size()) {
        const std::uint64_t n = std::min<std::uint64_t>(
            buf.size(), size - a);
        store.read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i]) << "sweep mismatch at "
                                          << a + i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, StoreFuzz,
                         ::testing::Values(
                             PolicyKind::Greedy, PolicyKind::Fifo,
                             PolicyKind::LocalityGathering,
                             PolicyKind::Hybrid),
                         [](const auto &param_info) {
                             std::string n =
                                 policyKindName(param_info.param);
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(EnvyStore, HotSpotHammeringStaysCorrect)
{
    // Repeated rewrites of a few pages force heavy cleaning of a
    // small region (worst case for the policies).
    EnvyStore store(churnConfig(PolicyKind::Hybrid));
    for (std::uint64_t round = 0; round < 2000; ++round) {
        for (Addr a = 0; a < 8; ++a)
            store.writeU64(a * 64, round * 100 + a);
    }
    for (Addr a = 0; a < 8; ++a)
        EXPECT_EQ(store.readU64(a * 64), 1999 * 100 + a);
}

TEST(EnvyStore, MetadataOnlyModeRunsTheSameMachinery)
{
    EnvyConfig cfg = churnConfig(PolicyKind::Hybrid);
    cfg.storeData = false;
    EnvyStore store(cfg);
    // Writes drive COW/flush/clean state without data.
    const std::uint32_t ps = cfg.geom.pageSize;
    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        std::uint8_t b = 0;
        store.write(rng.below(store.size() / ps) * ps, {&b, 1});
    }
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);
    store.flushAll(); // buffered pages are not in flash yet
    EXPECT_EQ(store.flash().totalLive(),
              cfg.geom.effectiveLogicalPages());
}

TEST(EnvyStore, CleaningCostReported)
{
    EnvyStore store(churnConfig(PolicyKind::Hybrid));
    Rng rng(3);
    for (int i = 0; i < 40000; ++i)
        store.writeU8(rng.below(store.size()), 1);
    EXPECT_GT(store.cleaningCost(), 0.0);
    EXPECT_LT(store.cleaningCost(), 40.0);
}

} // namespace
} // namespace envy

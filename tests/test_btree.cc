/**
 * @file
 * Tests for the in-store B-tree (db/btree.hh), including a
 * differential fuzz against std::map with cleaning underneath.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "db/btree.hh"
#include "sim/random.hh"

namespace envy {
namespace {

EnvyConfig
storeConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 32;
    return cfg;
}

TEST(BTree, EmptyTreeLookupMisses)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 64 * KiB);
    EXPECT_EQ(tree.lookup(1), std::nullopt);
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.height(), 1u);
    EXPECT_TRUE(tree.validate());
}

TEST(BTree, InsertThenLookup)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 64 * KiB);
    tree.insert(10, 100);
    tree.insert(5, 50);
    tree.insert(20, 200);
    EXPECT_EQ(tree.lookup(10), 100u);
    EXPECT_EQ(tree.lookup(5), 50u);
    EXPECT_EQ(tree.lookup(20), 200u);
    EXPECT_EQ(tree.lookup(15), std::nullopt);
    EXPECT_EQ(tree.size(), 3u);
}

TEST(BTree, InsertUpdatesExistingKey)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 64 * KiB);
    tree.insert(7, 1);
    tree.insert(7, 2);
    EXPECT_EQ(tree.lookup(7), 2u);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(BTree, SplitsGrowHeight)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 256 * KiB);
    for (std::uint64_t k = 0; k < 1000; ++k)
        tree.insert(k, k * 10);
    EXPECT_GT(tree.height(), 2u);
    EXPECT_EQ(tree.size(), 1000u);
    EXPECT_TRUE(tree.validate());
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_EQ(tree.lookup(k), k * 10);
}

TEST(BTree, ScanIsOrdered)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 256 * KiB);
    // Insert in a scrambled order.
    Rng rng(3);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 500; ++k)
        keys.push_back(k * 3 + 1);
    for (std::uint64_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[rng.below(i)]);
    for (auto k : keys)
        tree.insert(k, k);

    std::uint64_t prev = 0;
    std::uint64_t seen = 0;
    tree.scan([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_GT(k, prev);
        EXPECT_EQ(v, k);
        prev = k;
        ++seen;
    });
    EXPECT_EQ(seen, keys.size());
}

TEST(BTree, DifferentialFuzzAgainstStdMap)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 1 * MiB);
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(99);

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng.below(5000);
        if (rng.chance(0.7)) {
            const std::uint64_t val = rng.next();
            tree.insert(key, val);
            ref[key] = val;
        } else {
            const auto got = tree.lookup(key);
            const auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_EQ(got, std::nullopt);
            } else {
                ASSERT_EQ(got, it->second);
            }
        }
    }
    EXPECT_EQ(tree.size(), ref.size());
    EXPECT_TRUE(tree.validate());
    // Cleaning happened under the tree's feet.
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);

    // Full content comparison via scan.
    auto it = ref.begin();
    tree.scan([&](std::uint64_t k, std::uint64_t v) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    });
    EXPECT_EQ(it, ref.end());
}

TEST(BTree, PersistsAcrossOpen)
{
    EnvyStore store(storeConfig());
    {
        BTree tree(store, 4096, 256 * KiB);
        for (std::uint64_t k = 0; k < 300; ++k)
            tree.insert(k, k + 7);
        store.flushAll();
    }
    BTree again = BTree::open(store, 4096, 256 * KiB);
    EXPECT_EQ(again.size(), 300u);
    for (std::uint64_t k = 0; k < 300; ++k)
        ASSERT_EQ(again.lookup(k), k + 7);
    // And it is still writable.
    again.insert(1000, 1);
    EXPECT_EQ(again.lookup(1000), 1u);
}

TEST(BTree, SurvivesPowerFailure)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, 256 * KiB);
    for (std::uint64_t k = 0; k < 400; ++k)
        tree.insert(k, k * 2);

    store.powerFailAndRecover();

    BTree again = BTree::open(store, 0, 256 * KiB);
    for (std::uint64_t k = 0; k < 400; ++k)
        ASSERT_EQ(again.lookup(k), k * 2);
    EXPECT_TRUE(again.validate());
}

TEST(BTreeDeathTest, RegionExhaustionIsFatalNotCorrupting)
{
    EnvyStore store(storeConfig());
    BTree tree(store, 0, BTree::nodeBytes * 4 + 64);
    EXPECT_DEATH(
        {
            for (std::uint64_t k = 0; k < 10000; ++k)
                tree.insert(k, k);
        },
        "exhausted");
}

TEST(BTreeDeathTest, OpenWithoutTreeIsFatal)
{
    EnvyStore store(storeConfig());
    EXPECT_DEATH(BTree::open(store, 0, 64 * KiB), "no B-tree");
}

} // namespace
} // namespace envy

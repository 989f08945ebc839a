/**
 * @file
 * Tests for §6 hardware atomic transactions: shadow pages pin the
 * pre-image in flash, survive cleaning, and power rollback.
 */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "txn/shadow.hh"

namespace envy {
namespace {

EnvyConfig
txnConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 16;
    return cfg;
}

TEST(ShadowTxn, CommitMakesWritesPermanent)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    store.writeU64(100, 111);
    store.flushAll();

    const auto t = txns.begin();
    std::uint8_t v[8] = {222};
    txns.write(t, 100, v);
    txns.commit(t);
    EXPECT_EQ(store.readU8(100), 222);
    EXPECT_EQ(txns.shadowCount(), 0u);
}

TEST(ShadowTxn, AbortRestoresFlashPreImage)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    store.writeU64(100, 0xAAAA);
    store.flushAll(); // pre-image lands in flash

    const auto t = txns.begin();
    std::uint8_t v[8] = {0xBB, 0xBB, 0xBB, 0xBB};
    txns.write(t, 100, v);
    EXPECT_EQ(store.readU32(100), 0xBBBBBBBBu);
    EXPECT_EQ(txns.shadowCount(), 1u);

    txns.abort(t);
    EXPECT_EQ(store.readU64(100), 0xAAAAull);
    EXPECT_EQ(txns.shadowCount(), 0u);
}

TEST(ShadowTxn, AbortRestoresBufferedPreImage)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    // Pre-image still dirty in the SRAM buffer: no flash copy, so
    // the manager must snapshot.
    store.writeU64(200, 0x1234);

    const auto t = txns.begin();
    std::uint8_t v[8] = {0xFF};
    txns.write(t, 200, v);
    txns.abort(t);
    EXPECT_EQ(store.readU64(200), 0x1234ull);
}

TEST(ShadowTxn, MultiPageTransactionAbortsAtomically)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    const std::uint32_t ps = store.config().geom.pageSize;
    for (int p = 0; p < 6; ++p)
        store.writeU64(p * ps, 1000 + p);
    store.flushAll();

    const auto t = txns.begin();
    for (int p = 0; p < 6; ++p) {
        std::uint8_t v[8] = {static_cast<std::uint8_t>(p)};
        txns.write(t, p * ps, v);
    }
    EXPECT_EQ(txns.shadowCount(), 6u);
    txns.abort(t);
    for (int p = 0; p < 6; ++p)
        EXPECT_EQ(store.readU64(p * ps),
                  static_cast<std::uint64_t>(1000 + p));
}

TEST(ShadowTxn, RepeatedWritesKeepFirstPreImage)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    store.writeU64(300, 1);
    store.flushAll();

    const auto t = txns.begin();
    for (std::uint64_t i = 2; i < 10; ++i) {
        std::uint8_t v[8];
        for (int b = 0; b < 8; ++b)
            v[b] = static_cast<std::uint8_t>(i >> (8 * b));
        txns.write(t, 300, v);
    }
    EXPECT_EQ(txns.shadowCount(), 1u); // one shadow, not eight
    txns.abort(t);
    EXPECT_EQ(store.readU64(300), 1ull);
}

TEST(ShadowTxn, ShadowsSurviveCleaning)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    store.writeU64(400, 0xCAFE);
    store.flushAll();

    const auto t = txns.begin();
    std::uint8_t v[8] = {0x01};
    txns.write(t, 400, v);

    // Grind the store to force many cleans; the §6 requirement is
    // that the controller "protects [shadows] from being cleaned".
    Rng rng(55);
    const auto cleans0 = store.cleanerRef().metSegmentsCleaned.value();
    for (int i = 0; i < 40000; ++i)
        store.writeU8(rng.below(store.size()), 0x77);
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), cleans0 + 10);

    txns.abort(t);
    EXPECT_EQ(store.readU64(400), 0xCAFEull);
}

TEST(ShadowTxn, IndependentTransactions)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    const std::uint32_t ps = store.config().geom.pageSize;
    store.writeU64(0, 10);
    store.writeU64(4 * ps, 20);
    store.flushAll();

    const auto t1 = txns.begin();
    const auto t2 = txns.begin();
    std::uint8_t a[8] = {11};
    std::uint8_t b[8] = {21};
    txns.write(t1, 0, a);
    txns.write(t2, 4 * ps, b);
    txns.commit(t1);
    txns.abort(t2);
    EXPECT_EQ(store.readU8(0), 11);
    EXPECT_EQ(store.readU64(4 * ps), 20ull);
}

TEST(ShadowTxn, DestructorAbortsOpenTransactions)
{
    EnvyStore store(txnConfig());
    store.writeU64(500, 7);
    store.flushAll();
    {
        ShadowManager txns(store);
        const auto t = txns.begin();
        std::uint8_t v[8] = {9};
        txns.write(t, 500, v);
        // No commit: manager destruction must roll back.
    }
    EXPECT_EQ(store.readU64(500), 7ull);
}

TEST(ShadowTxnDeathTest, OverlappingWritersAreRejected)
{
    EnvyStore store(txnConfig());
    ShadowManager txns(store);
    store.flushAll();
    const auto t1 = txns.begin();
    const auto t2 = txns.begin();
    std::uint8_t v[4] = {};
    txns.write(t1, 0, v);
    EXPECT_DEATH(txns.write(t2, 0, v), "owned by");
}

} // namespace
} // namespace envy

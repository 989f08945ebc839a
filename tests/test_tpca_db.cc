/**
 * @file
 * Tests for the functional TPC-A database on the eNVy store:
 * the per-branch balance invariant must survive arbitrary
 * transaction mixes, cleaning churn and power failure.
 */

#include <gtest/gtest.h>

#include "db/tpca_db.hh"
#include "sim/random.hh"

namespace envy {
namespace {

EnvyConfig
dbConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 64;
    cfg.prePopulate = true;
    return cfg;
}

TpcaDatabase::Params
smallDb()
{
    TpcaDatabase::Params p;
    p.accounts = 2000;
    p.accountsPerTeller = 100;
    p.tellersPerBranch = 4;
    return p;
}

TEST(TpcaDb, RatiosFollowTheConfig)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    EXPECT_EQ(db.accounts(), 2000u);
    EXPECT_EQ(db.tellers(), 20u);
    EXPECT_EQ(db.branches(), 5u);
}

TEST(TpcaDb, FreshDatabaseIsConsistent)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    EXPECT_TRUE(db.consistent());
    EXPECT_EQ(db.accountBalance(0), 1000);
    EXPECT_EQ(db.branchBalance(0), 0);
}

TEST(TpcaDb, SingleTransactionMovesAllThreeBalances)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    db.run(250, 75); // account 250 -> teller 2 -> branch 0
    EXPECT_EQ(db.accountBalance(250), 1075);
    EXPECT_EQ(db.tellerBalance(2), 75);
    EXPECT_EQ(db.branchBalance(0), 75);
    EXPECT_TRUE(db.consistent());
}

TEST(TpcaDb, ThousandsOfTransactionsStayConsistent)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        db.run(rng.below(db.accounts()),
               static_cast<std::int64_t>(rng.between(1, 500)) - 250);
    }
    // The churn must have exercised the cleaner.
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);
    EXPECT_TRUE(db.consistent());
}

TEST(TpcaDb, SurvivesPowerFailureMidWorkload)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    Rng rng(37);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 3000; ++i)
            db.run(rng.below(db.accounts()), 10);
        store.powerFailAndRecover();
        EXPECT_TRUE(db.consistent());
    }
}

TEST(TpcaDb, AtomicTransactionsCommit)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    ShadowManager txns(store);
    db.runAtomic(txns, 100, 500);
    EXPECT_EQ(db.accountBalance(100), 1500);
    EXPECT_TRUE(db.consistent());
    EXPECT_EQ(txns.activeTransactions(), 0u);
}

TEST(TpcaDb, AbortedTransactionLeavesNoTrace)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    ShadowManager txns(store);
    // Abort after updating the account but not teller/branch — the
    // classic torn TPC-A update.
    db.runAtomic(txns, 100, 500, 1);
    EXPECT_EQ(db.accountBalance(100), 1000);
    EXPECT_EQ(db.tellerBalance(1), 0);
    EXPECT_TRUE(db.consistent());
}

TEST(TpcaDb, MixedAtomicAndFailingTransactions)
{
    EnvyStore store(dbConfig());
    TpcaDatabase db(store, smallDb());
    ShadowManager txns(store);
    Rng rng(41);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t acct = rng.below(db.accounts());
        const int fail = rng.chance(0.2)
                             ? static_cast<int>(rng.below(3))
                             : -1;
        db.runAtomic(txns, acct, 25, fail);
    }
    EXPECT_TRUE(db.consistent());
    EXPECT_EQ(txns.shadowCount(), 0u);
}

} // namespace
} // namespace envy

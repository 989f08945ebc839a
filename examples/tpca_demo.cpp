/**
 * @file
 * The paper's motivating workload, for real: a TPC-A banking
 * database (branch/teller/account records plus three B-tree
 * indices) living entirely inside an eNVy store and executing
 * genuine debit/credit transactions — §5.2 done functionally rather
 * than as an access-shape simulation.
 *
 *   ./tpca_demo [accounts=20000] [transactions=50000] [seed=1]
 *               [persist=PATH] [persist_checkpoint_bytes=N]
 *
 * With `persist=PATH` the store lives in a real file pair
 * (docs/PERSISTENCE.md): the first run creates PATH, later runs
 * recover whatever state the previous process — cleanly exited or
 * SIGKILLed — left behind.
 */

#include <cstdio>

#include "db/tpca_db.hh"
#include "envysim/config.hh"
#include "persist/backend.hh"
#include "sim/random.hh"

using namespace envy;

int
main(int argc, char **argv)
{
    const Options opts(argc, argv);
    const std::uint64_t accounts = opts.getUint("accounts", 20000);
    const std::uint64_t transactions =
        opts.getUint("transactions", 50000);
    const std::uint64_t seed = opts.getUint("seed", 1);

    // Size the store to the database: records plus index slack.
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    while (cfg.geom.logicalBytes().value() < accounts * 140 + 512 * KiB)
        cfg.geom.numBanks *= 2;
    opts.applyPersist(cfg);
    opts.warnUnused();
    EnvyStore store(cfg);
    if (store.persistent())
        std::printf("persistent store at %s: %s\n",
                    cfg.persistPath.c_str(),
                    store.persistReport().created ? "created"
                                                  : "recovered");

    TpcaDatabase::Params params;
    params.accounts = accounts;
    params.accountsPerTeller = 1000;
    params.tellersPerBranch = 10;
    TpcaDatabase db(store, params);

    std::printf("loaded TPC-A: %llu accounts, %llu tellers, %llu "
                "branches in a %llu-byte store\n",
                static_cast<unsigned long long>(db.accounts()),
                static_cast<unsigned long long>(db.tellers()),
                static_cast<unsigned long long>(db.branches()),
                static_cast<unsigned long long>(store.size()));

    Rng rng(seed);
    std::int64_t total_moved = 0;
    for (std::uint64_t i = 0; i < transactions; ++i) {
        const std::uint64_t account = rng.below(db.accounts());
        const std::int64_t amount =
            static_cast<std::int64_t>(rng.between(1, 1000)) - 500;
        db.run(account, amount);
        total_moved += amount;
    }

    std::printf("ran %llu transactions (net amount %lld)\n",
                static_cast<unsigned long long>(transactions),
                static_cast<long long>(total_moved));
    std::printf("storage-level activity: %llu host writes, %llu "
                "copy-on-writes, %llu flushes, %llu cleans, "
                "cleaning cost %.2f\n",
                static_cast<unsigned long long>(
                    store.controller().metHostWrites.value()),
                static_cast<unsigned long long>(
                    store.controller().metCows.value()),
                static_cast<unsigned long long>(
                    store.writeBuffer().metFlushes.value()),
                static_cast<unsigned long long>(
                    store.cleanerRef().metSegmentsCleaned.value()),
                store.cleaningCost());

    std::int64_t branch_sum = 0;
    for (std::uint64_t b = 0; b < db.branches(); ++b)
        branch_sum += db.branchBalance(b);
    std::printf("sum of branch balances: %lld (must equal the net "
                "amount)\n",
                static_cast<long long>(branch_sum));

    std::printf("consistency sweep (balances + indices): %s\n",
                db.consistent() ? "OK" : "FAILED");

    // Crash it for good measure: a database on eNVy needs no redo
    // log — the storage itself is the durable state.
    store.powerFailAndRecover();
    std::printf("after power failure: %s\n",
                db.consistent() ? "still consistent" : "CORRUPT");
    return db.consistent() ? 0 : 1;
}

/**
 * @file
 * §6 hardware atomic transactions in action: eNVy's copy-on-write
 * already preserves the old flash copy of every modified page, so a
 * transaction can roll back "simply by copying data back from
 * Flash" — no write-ahead log, no checkpoint files.
 *
 * The demo moves money between two accounts with a deliberately
 * injected failure between the debit and the credit, then shows the
 * rollback restoring the invariant, including while the cleaner is
 * actively relocating the shadow copies.
 *
 *   ./transactions
 */

#include <cstdio>

#include "sim/random.hh"
#include "txn/shadow.hh"

using namespace envy;

namespace {

std::int64_t
balance(EnvyStore &store, Addr account)
{
    return static_cast<std::int64_t>(store.readU64(account));
}

void
setBalance(ShadowManager &txns, ShadowManager::TxnId t, Addr account,
           std::int64_t v)
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(v) >> (8 * i));
    txns.write(t, account, buf);
}

} // namespace

int
main()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    EnvyStore store(cfg);
    ShadowManager txns(store);

    const Addr alice = 0x1000, bob = 0x9000;
    store.writeU64(alice, 1000);
    store.writeU64(bob, 1000);
    store.flushAll(); // balances now live in flash

    std::printf("start: alice=%lld bob=%lld\n",
                static_cast<long long>(balance(store, alice)),
                static_cast<long long>(balance(store, bob)));

    // A transfer that fails halfway: debit applied, credit not.
    {
        const auto t = txns.begin();
        setBalance(txns, t, alice, balance(store, alice) - 300);
        std::printf("mid-transaction (debited, not credited): "
                    "alice=%lld bob=%lld, %zu shadow page(s) "
                    "pinned in flash\n",
                    static_cast<long long>(balance(store, alice)),
                    static_cast<long long>(balance(store, bob)),
                    txns.shadowCount());
        txns.abort(t);
        std::printf("after abort: alice=%lld bob=%lld\n",
                    static_cast<long long>(balance(store, alice)),
                    static_cast<long long>(balance(store, bob)));
    }

    // The same transfer, committed.
    {
        const auto t = txns.begin();
        setBalance(txns, t, alice, balance(store, alice) - 300);
        setBalance(txns, t, bob, balance(store, bob) + 300);
        txns.commit(t);
        std::printf("after commit: alice=%lld bob=%lld\n",
                    static_cast<long long>(balance(store, alice)),
                    static_cast<long long>(balance(store, bob)));
    }

    // Now the hard part the paper calls out: the controller must
    // "protect [shadows] from being cleaned".  Open a transaction,
    // then grind the store so hard the cleaner relocates everything
    // under it — the pinned pre-image must follow.
    {
        const auto t = txns.begin();
        setBalance(txns, t, alice, 0); // to be rolled back
        const auto cleans0 = store.cleanerRef().metSegmentsCleaned.value();
        Rng rng(9);
        for (int i = 0; i < 60000; ++i)
            store.writeU8(rng.below(store.size()), 0x5A);
        std::printf("ground the store: %llu cleans while the "
                    "transaction stayed open\n",
                    static_cast<unsigned long long>(
                        store.cleanerRef().metSegmentsCleaned.value() -
                        cleans0));
        txns.abort(t);
        std::printf("after abort-under-churn: alice=%lld "
                    "(expected 700)\n",
                    static_cast<long long>(balance(store, alice)));
    }

    return balance(store, alice) == 700 &&
                   balance(store, bob) == 1300
               ? 0
               : 1;
}

/**
 * @file
 * Quickstart: eNVy as a linear, persistent, word-addressable memory.
 *
 * The paper's pitch (§1): storage "should be provided by means of
 * word-sized reads and writes, just as with conventional memory" —
 * no disk blocks, no serialisation formats.  This example builds a
 * small store, writes a few in-place data structures, shows the
 * copy-on-write machinery at work underneath, and survives a
 * simulated power failure.
 *
 *   ./quickstart
 */

#include <cstdio>

#include "envy/envy_store.hh"

using namespace envy;

int
main()
{
    // A laptop-sized store: the tiny() geometry is 2 MiB of "flash"
    // with all of the real machinery (COW, FIFO write buffer,
    // hybrid cleaning, wear leveling).
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    EnvyStore store(cfg);

    std::printf("created an eNVy store: %llu bytes, %llu segments, "
                "%u-byte pages\n",
                static_cast<unsigned long long>(store.size()),
                static_cast<unsigned long long>(
                    store.config().geom.numSegments()),
                store.config().geom.pageSize);

    // 1. Plain in-place updates, like memory.
    store.writeU64(0x100, 42);
    store.writeU64(0x100, 43); // no erase cycle needed: COW + remap
    std::printf("in-place update: wrote 42 then 43, read back %llu\n",
                static_cast<unsigned long long>(
                    store.readU64(0x100)));

    // 2. A little linked list threaded through the address space —
    // pointer-chasing data structures need no save format.
    Addr node = 0x1000;
    for (int i = 0; i < 5; ++i) {
        const Addr next = node + 64;
        store.writeU64(node, i * 10);       // payload
        store.writeU64(node + 8,
                       i == 4 ? 0 : next);  // next pointer
        node = next;
    }
    std::printf("linked list payloads:");
    for (Addr n = 0x1000; n != 0;) {
        std::printf(" %llu", static_cast<unsigned long long>(
                                 store.readU64(n)));
        n = store.readU64(n + 8);
    }
    std::printf("\n");

    // 3. Rewrite a large region enough times that the flash fills
    // with superseded copies and the cleaner has to reclaim space.
    const std::uint64_t region_pages = 4096;
    const std::uint32_t ps = store.config().geom.pageSize;
    for (int round = 0; round < 30000; ++round)
        store.writeU32(0x2000 + std::uint64_t(round * 37 %
                                              region_pages) * ps,
                       round);
    std::printf("after churn: %llu copy-on-writes, %llu cleans, "
                "cleaning cost %.2f\n",
                static_cast<unsigned long long>(
                    store.controller().metCows.value()),
                static_cast<unsigned long long>(
                    store.cleanerRef().metSegmentsCleaned.value()),
                store.cleaningCost());

    // 4. Power failure: the page table and write buffer live in
    // battery-backed SRAM, the rest is flash — nothing is lost.
    store.powerFailAndRecover();
    std::printf("after power failure: list head %llu, last counter "
                "%u\n",
                static_cast<unsigned long long>(
                    store.readU64(0x1000)),
                store.readU32(0x2000 +
                              std::uint64_t(29999 * 37 %
                                            region_pages) *
                                  ps));

    std::printf("\nevent counters:\n");
    for (const auto &e : store.metrics().snapshot().entries) {
        if (e.kind == obs::MetricKind::Counter)
            std::printf("  %-28s %12llu %s\n", e.name.c_str(),
                        static_cast<unsigned long long>(e.value),
                        e.unit.c_str());
    }
    return 0;
}

/**
 * @file
 * Crash-recovery tests (§3.2-§3.4): the page table in battery-backed
 * SRAM is the commit point; no committed data may be lost across a
 * power failure, including one that interrupts a clean.
 */

#include <gtest/gtest.h>

#include <vector>

#include "envy/envy_store.hh"
#include "faults/fault_injector.hh"
#include "sim/random.hh"

namespace envy {
namespace {

EnvyConfig
recoveryConfig()
{
    EnvyConfig cfg;
    cfg.geom = Geometry::tiny();
    cfg.geom.writeBufferPages = 32;
    cfg.policy = PolicyKind::Hybrid;
    cfg.partitionSize = 4;
    return cfg;
}

TEST(Recovery, IdleRecoveryIsIdempotent)
{
    EnvyStore store(recoveryConfig());
    store.writeU64(500, 0xABCDEF);
    store.powerFailAndRecover();
    EXPECT_EQ(store.readU64(500), 0xABCDEFull);
    store.powerFailAndRecover();
    store.powerFailAndRecover();
    EXPECT_EQ(store.readU64(500), 0xABCDEFull);
}

TEST(Recovery, BufferedDataSurvives)
{
    EnvyConfig cfg = recoveryConfig();
    cfg.autoDrain = false; // keep everything buffered in SRAM
    EnvyStore store(cfg);
    for (int i = 0; i < 20; ++i)
        store.writeU32(i * 1000, 0xC0DE0000u + i);
    EXPECT_FALSE(store.writeBuffer().empty());

    store.powerFailAndRecover();

    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(store.readU32(i * 1000), 0xC0DE0000u + i);
}

TEST(Recovery, RandomChurnThenCrash)
{
    EnvyStore store(recoveryConfig());
    std::vector<std::uint8_t> ref(store.size(), 0);
    Rng rng(11);

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t addr = rng.below(store.size() - 8);
        const std::uint64_t v = rng.next();
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i) {
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
            ref[addr + i] = buf[i];
        }
        store.write(addr, buf);
    }
    ASSERT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);

    store.powerFailAndRecover();

    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t a = 0; a < store.size(); a += buf.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf.size(), store.size() - a);
        store.read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i])
                << "lost byte at " << a + i;
    }
}

TEST(Recovery, CrashDuringCleanResumesAndLosesNothing)
{
    EnvyStore store(recoveryConfig());
    std::vector<std::uint8_t> ref(store.size(), 0);
    Rng rng(13);

    // Arm a power failure 100 relocations into some future clean:
    // the injected PowerLoss cuts execution exactly at the crash
    // point the way real power loss would.
    FaultPlan plan;
    plan.crashPoint = "cleaner.relocate.done";
    plan.crashOccurrence = 100;
    FaultInjector injector(plan);
    injector.arm();

    bool crashed = false;
    for (int op = 0; op < 20000 && !crashed; ++op) {
        const std::uint64_t addr = rng.below(store.size() - 4);
        const std::uint32_t v = static_cast<std::uint32_t>(rng.next());
        std::uint8_t buf[4];
        for (int i = 0; i < 4; ++i) {
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
            // The write data lands in the SRAM buffer before the
            // background drain where the crash fires, so it counts
            // as committed either way.
            ref[addr + i] = buf[i];
        }
        try {
            store.write(addr, buf);
        } catch (const PowerLoss &) {
            crashed = true;
        }
    }
    ASSERT_TRUE(crashed) << "no clean reached 100 relocations";
    ASSERT_TRUE(store.space().cleanRecord().inProgress);
    injector.disarm();

    store.powerFailAndRecover();
    EXPECT_FALSE(store.space().cleanRecord().inProgress);

    // Every byte written before the crash is intact.
    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t a = 0; a < store.size(); a += buf.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf.size(), store.size() - a);
        store.read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i])
                << "lost byte at " << a + i;
    }

    // And the system still works.
    store.writeU64(0, 42);
    EXPECT_EQ(store.readU64(0), 42u);
}

TEST(Recovery, StoreKeepsWorkingAfterRecovery)
{
    EnvyStore store(recoveryConfig());
    Rng rng(17);
    for (int round = 0; round < 3; ++round) {
        for (int op = 0; op < 5000; ++op)
            store.writeU32(rng.below(store.size() - 4),
                           static_cast<std::uint32_t>(rng.next()));
        store.powerFailAndRecover();
    }
    store.writeU64(100, 0x1234);
    EXPECT_EQ(store.readU64(100), 0x1234ull);
}

TEST(Recovery, TlbIsColdAfterRecovery)
{
    EnvyStore store(recoveryConfig());
    Controller &ctl = store.controller();
    std::uint8_t byte = 0;
    ctl.read(0, {&byte, 1});
    EXPECT_FALSE(ctl.read(0, {&byte, 1}).tlbMiss); // hit
    store.powerFailAndRecover();
    EXPECT_TRUE(ctl.read(0, {&byte, 1}).tlbMiss); // must walk again
}

} // namespace
} // namespace envy

/**
 * @file
 * Geometry-parameterized property suite: the full store must satisfy
 * its invariants on *any* legal geometry, not just the two presets —
 * wide pages, tiny pages, many small segments, few huge ones, deep
 * and shallow chips.
 */

#include <gtest/gtest.h>

#include <vector>

#include "envy/envy_store.hh"
#include "sim/random.hh"

namespace envy {
namespace {

struct GeomCase
{
    const char *name;
    std::uint32_t pageSize;
    std::uint32_t blockBytes;
    std::uint32_t blocksPerChip;
    std::uint32_t numBanks;
    double utilization;
};

// Print the shape, not the struct's bytes: those include the name
// pointer, which would make the discovered test names differ per build.
void
PrintTo(const GeomCase &c, std::ostream *os)
{
    *os << "{" << c.pageSize << ", " << c.blockBytes << ", "
        << c.blocksPerChip << ", " << c.numBanks << ", " << c.utilization
        << "}";
}

class GeometrySweep : public ::testing::TestWithParam<GeomCase>
{
  protected:
    EnvyConfig
    makeConfig() const
    {
        const GeomCase &c = GetParam();
        EnvyConfig cfg;
        cfg.geom.pageSize = c.pageSize;
        cfg.geom.blockBytes = c.blockBytes;
        cfg.geom.blocksPerChip = c.blocksPerChip;
        cfg.geom.numBanks = c.numBanks;
        cfg.geom.targetUtilization = c.utilization;
        cfg.geom.writeBufferPages = 16;
        cfg.partitionSize = 4;
        return cfg;
    }
};

TEST_P(GeometrySweep, GeometryIsLegal)
{
    EXPECT_EQ(makeConfig().geom.validate(), nullptr);
}

TEST_P(GeometrySweep, FuzzAgainstReference)
{
    EnvyConfig cfg = makeConfig();
    EnvyStore store(cfg);
    std::vector<std::uint8_t> ref(store.size(), 0);
    Rng rng(77);

    for (int op = 0; op < 8000; ++op) {
        const std::uint64_t len = rng.between(1, 32);
        const std::uint64_t addr = rng.below(store.size() - len);
        std::uint8_t buf[32];
        if (rng.chance(0.6)) {
            for (std::uint64_t i = 0; i < len; ++i) {
                buf[i] = static_cast<std::uint8_t>(rng.next());
                ref[addr + i] = buf[i];
            }
            store.write(addr, {buf, len});
        } else {
            store.read(addr, {buf, len});
            for (std::uint64_t i = 0; i < len; ++i)
                ASSERT_EQ(buf[i], ref[addr + i]);
        }
    }

    // Invariants after churn.
    store.flushAll();
    EXPECT_EQ(store.flash().totalLive(),
              cfg.geom.effectiveLogicalPages());
    EXPECT_EQ(store.flash().usedSlots(store.space().reserve()),
              PageCount(0));

    // Recovery works on every geometry.
    store.powerFailAndRecover();
    std::vector<std::uint8_t> buf(1024);
    for (std::uint64_t a = 0; a < store.size(); a += 4096) {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf.size(), store.size() - a);
        store.read(a, {buf.data(), n});
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], ref[a + i]);
    }
}

TEST_P(GeometrySweep, MetadataOnlyChurn)
{
    EnvyConfig cfg = makeConfig();
    cfg.storeData = false;
    EnvyStore store(cfg);
    const std::uint32_t ps = cfg.geom.pageSize;
    Rng rng(5);
    for (int i = 0; i < 30000; ++i) {
        std::uint8_t b = 0;
        store.write(rng.below(store.size() / ps) * ps, {&b, 1});
    }
    EXPECT_GT(store.cleanerRef().metSegmentsCleaned.value(), 0u);
    EXPECT_LT(store.cleaningCost(), 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(
        // Wide pages, few big segments (paper-proportioned).
        GeomCase{"wide", 256, 1024, 4, 2, 0.8},
        // Narrow pages, many small segments.
        GeomCase{"narrow", 32, 512, 16, 4, 0.8},
        // Deep chips (many blocks), single-digit segments per bank.
        GeomCase{"deep", 64, 1024, 32, 1, 0.8},
        // Minimum legal segment count.
        GeomCase{"minimal", 64, 2048, 4, 1, 0.6},
        // Low utilization (cleaning nearly free).
        GeomCase{"roomy", 64, 1024, 8, 2, 0.4},
        // High utilization (cleaning expensive but legal).
        GeomCase{"tight", 64, 1024, 8, 2, 0.9}),
    [](const auto &param_info) { return param_info.param.name; });

} // namespace
} // namespace envy

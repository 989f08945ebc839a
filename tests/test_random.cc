/**
 * @file
 * Tests for the deterministic RNG and the bimodal access
 * distribution of paper §4.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hh"
#include "workload/bimodal.hh"

namespace envy {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                                (1ull << 40) + 7}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.between(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= v == 10;
        saw_hi |= v == 13;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(11);
    const int buckets = 10, n = 100000;
    std::vector<int> hist(buckets, 0);
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        hist[static_cast<int>(u * buckets)]++;
    }
    for (int b = 0; b < buckets; ++b)
        EXPECT_NEAR(hist[b], n / buckets, n / buckets * 0.1);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(13);
    const double mean = 250.0;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

struct LocalityCase
{
    const char *spec;
    double hot_fraction;
    double hot_access;
};

// Name each case by its spec. The default printer dumps the struct's
// bytes, spec pointer included, so the discovered test names would
// change with every build and every load address.
void
PrintTo(const LocalityCase &c, std::ostream *os)
{
    *os << c.spec;
}

class BimodalTest : public ::testing::TestWithParam<LocalityCase>
{
};

TEST_P(BimodalTest, ParsesSpec)
{
    const auto &c = GetParam();
    const LocalitySpec s = LocalitySpec::parse(c.spec);
    EXPECT_DOUBLE_EQ(s.hotFraction, c.hot_fraction);
    EXPECT_DOUBLE_EQ(s.hotAccess, c.hot_access);
}

TEST_P(BimodalTest, HotRegionGetsItsShare)
{
    const auto &c = GetParam();
    const std::uint64_t pages = 100000;
    BimodalWriteWorkload w(pages,
                           LocalitySpec{c.hot_fraction, c.hot_access},
                           99);
    const std::uint64_t hot_limit =
        static_cast<std::uint64_t>(pages * c.hot_fraction);
    const int n = 200000;
    int hot = 0;
    for (int i = 0; i < n; ++i) {
        const LogicalPageId p = w.nextPage();
        ASSERT_LT(p.value(), pages);
        hot += p.value() < hot_limit ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hot) / n, c.hot_access, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    PaperLocalities, BimodalTest,
    ::testing::Values(LocalityCase{"50/50", 0.5, 0.5},
                      LocalityCase{"40/60", 0.4, 0.6},
                      LocalityCase{"30/70", 0.3, 0.7},
                      LocalityCase{"20/80", 0.2, 0.8},
                      LocalityCase{"10/90", 0.1, 0.9},
                      LocalityCase{"5/95", 0.05, 0.95}));

TEST(Bimodal, UniformSpreadsEvenly)
{
    const std::uint64_t pages = 1000;
    BimodalWriteWorkload w(pages, LocalitySpec{0.5, 0.5}, 3);
    std::vector<int> hits(pages, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        hits[w.nextPage().value()]++;
    int max = 0, min = n;
    for (int h : hits) {
        max = std::max(max, h);
        min = std::min(min, h);
    }
    // Poisson with mean 200: 5-sigma band.
    EXPECT_GT(min, 120);
    EXPECT_LT(max, 280);
}

TEST(Bimodal, LabelRoundTrip)
{
    EXPECT_EQ(LocalitySpec::parse("10/90").label(), "10/90");
    EXPECT_EQ(LocalitySpec::parse("5/95").label(), "5/95");
}

} // namespace
} // namespace envy

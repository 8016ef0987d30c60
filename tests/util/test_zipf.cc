/**
 * @file
 * Unit and statistical tests for the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/random.hh"
#include "util/zipf.hh"

namespace zombie
{
namespace
{

TEST(Zipf, SamplesStayInRange)
{
    Xoshiro256 rng(1);
    ZipfDistribution zipf(100, 1.0);
    for (int i = 0; i < 50000; ++i)
        ASSERT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, SingleItemAlwaysRankZero)
{
    Xoshiro256 rng(2);
    ZipfDistribution zipf(1, 1.2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    Xoshiro256 rng(3);
    ZipfDistribution zipf(10, 0.0);
    std::map<std::uint64_t, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (const auto &[rank, c] : counts)
        EXPECT_NEAR(c, n / 10.0, n * 0.01);
}

TEST(Zipf, RankZeroIsMostPopular)
{
    Xoshiro256 rng(4);
    ZipfDistribution zipf(1000, 1.1);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[100]);
}

TEST(Zipf, EmpiricalMatchesTheoreticalHeadProbability)
{
    Xoshiro256 rng(5);
    const double s = 1.0;
    ZipfDistribution zipf(100, s);
    const int n = 400000;
    int head = 0;
    for (int i = 0; i < n; ++i) {
        if (zipf.sample(rng) == 0)
            ++head;
    }
    // P(rank 0) = 1 / H_100 with H_100 ~ 5.187.
    EXPECT_NEAR(head / static_cast<double>(n), 1.0 / 5.187, 0.01);
}

TEST(Zipf, TopMassFractionMonotoneInRanks)
{
    ZipfDistribution zipf(1000, 1.0);
    EXPECT_LT(zipf.topMassFraction(10), zipf.topMassFraction(100));
    EXPECT_LT(zipf.topMassFraction(100), zipf.topMassFraction(999));
    EXPECT_DOUBLE_EQ(zipf.topMassFraction(1000), 1.0);
    EXPECT_DOUBLE_EQ(zipf.topMassFraction(5000), 1.0);
}

TEST(Zipf, SkewProducesEightyTwentyStyleConcentration)
{
    // The paper's Figure 3a: ~20% of values take ~80% of writes.
    // With s ~ 1.15 over 10k items the top 20% hold > 75% of mass.
    ZipfDistribution zipf(10000, 1.15);
    EXPECT_GT(zipf.topMassFraction(2000), 0.75);
}

TEST(Zipf, EmpiricalTopMassTracksAnalytic)
{
    Xoshiro256 rng(6);
    ZipfDistribution zipf(500, 1.2);
    const int n = 300000;
    std::vector<int> counts(500, 0);
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    int top50 = 0;
    for (int i = 0; i < 50; ++i)
        top50 += counts[i];
    EXPECT_NEAR(top50 / static_cast<double>(n),
                zipf.topMassFraction(50), 0.01);
}

TEST(Zipf, DeterministicGivenRngSeed)
{
    ZipfDistribution zipf(100, 0.9);
    Xoshiro256 a(9), b(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(zipf.sample(a), zipf.sample(b));
}

TEST(Zipf, ExponentNearOneDoesNotDegenerate)
{
    // The s == 1 branch uses the log form; make sure values around it
    // behave continuously.
    Xoshiro256 rng(10);
    for (double s : {0.999, 1.0, 1.001}) {
        ZipfDistribution zipf(50, s);
        for (int i = 0; i < 10000; ++i)
            ASSERT_LT(zipf.sample(rng), 50u);
    }
}

TEST(Zipf, DefaultMethodDrawSequenceIsPinned)
{
    // Byte-identical draw pin for the default (rejection-inversion)
    // sampler: every pinned trace golden in the repo was generated
    // through this sequence, so a change here flags that the goldens
    // must be regenerated — or that the sampler silently drifted.
    Xoshiro256 rng(42);
    ZipfDistribution zipf(1000, 1.1);
    const std::uint64_t expected[] = {408u, 28u, 3u, 0u, 0u, 1u, 2u,
                                      0u, 1u, 6u, 2u, 59u, 1u, 46u,
                                      2u, 0u};
    for (std::uint64_t want : expected)
        EXPECT_EQ(zipf.sample(rng), want);

    Xoshiro256 uniform_rng(7);
    ZipfDistribution uniform(64, 0.0);
    const std::uint64_t expected_uniform[] = {44u, 17u, 53u, 62u,
                                              63u, 55u, 3u, 6u};
    for (std::uint64_t want : expected_uniform)
        EXPECT_EQ(uniform.sample(uniform_rng), want);
}

TEST(ZipfDeath, RejectsEmptyUniverse)
{
    EXPECT_DEATH({ ZipfDistribution zipf(0, 1.0); }, "universe");
}

TEST(ZipfDeath, RejectsNegativeExponent)
{
    EXPECT_DEATH({ ZipfDistribution zipf(10, -0.5); }, "non-negative");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/random.hh"
#include "util/stats.hh"

namespace zombie
{
namespace
{

TEST(LatencyHistogram, EmptyPercentileIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(0.99), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, ExactForSmallValues)
{
    // Values below the sub-bucket count are recorded exactly.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 31u);
    EXPECT_EQ(h.percentile(0.5), 15u);
    EXPECT_EQ(h.percentile(1.0), 31u);
}

TEST(LatencyHistogram, MeanIsExact)
{
    LatencyHistogram h;
    double sum = 0.0;
    Xoshiro256 rng(2);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.nextBounded(1'000'000);
        h.record(v);
        sum += static_cast<double>(v);
    }
    EXPECT_DOUBLE_EQ(h.mean(), sum / 10000.0);
}

TEST(LatencyHistogram, PercentileWithinRelativeErrorBound)
{
    LatencyHistogram h;
    std::vector<double> exact;
    Xoshiro256 rng(3);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t v = 100 + rng.nextBounded(10'000'000);
        h.record(v);
        exact.push_back(static_cast<double>(v));
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double approx = static_cast<double>(h.percentile(q));
        const double truth = exact[static_cast<std::size_t>(
            q * static_cast<double>(exact.size() - 1))];
        EXPECT_NEAR(approx / truth, 1.0, 0.04)
            << "quantile " << q;
    }
}

TEST(LatencyHistogram, PercentileNeverExceedsMax)
{
    LatencyHistogram h;
    h.record(1'000'000);
    h.record(5);
    EXPECT_LE(h.percentile(1.0), 1'000'000u);
    EXPECT_LE(h.percentile(0.99), 1'000'000u);
}

TEST(LatencyHistogram, ExtremeQuantilesClampToRecordedRange)
{
    // Quantile 0 is the recorded minimum and quantile 1 never
    // exceeds the recorded maximum, even when bucketization would
    // otherwise round up past them.
    LatencyHistogram h;
    Xoshiro256 rng(6);
    std::uint64_t lo = ~0ull, hi = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = 4000 + rng.nextBounded(10'000'000);
        h.record(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_EQ(h.percentile(0.0), lo);
    EXPECT_EQ(h.percentile(1.0), hi);
    for (double q : {0.001, 0.01, 0.5, 0.999}) {
        EXPECT_GE(h.percentile(q), lo) << "quantile " << q;
        EXPECT_LE(h.percentile(q), hi) << "quantile " << q;
    }
}

TEST(LatencyHistogram, SingleSampleQuantilesAreThatSample)
{
    LatencyHistogram h;
    h.record(261'321);
    EXPECT_EQ(h.percentile(0.0), 261'321u);
    EXPECT_EQ(h.percentile(0.5), 261'321u);
    EXPECT_EQ(h.percentile(1.0), 261'321u);
}

TEST(LatencyHistogram, MergePreservesExactSumMean)
{
    // merge() adds the raw value sums, so the merged mean is exactly
    // the sequential mean, not a weighted recombination of rounded
    // means.
    LatencyHistogram a, b;
    double sum = 0.0;
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.nextBounded(50'000'000);
        (i % 2 ? a : b).record(v);
        sum += static_cast<double>(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), 10000u);
    EXPECT_DOUBLE_EQ(a.mean(), sum / 10000.0);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram a, b, all;
    Xoshiro256 rng(4);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = rng.nextBounded(1 << 20);
        all.record(v);
        (i % 3 ? a : b).record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    EXPECT_EQ(a.percentile(0.99), all.percentile(0.99));
    EXPECT_EQ(a.maxValue(), all.maxValue());
}

TEST(LatencyHistogram, ResetClears)
{
    LatencyHistogram h;
    h.record(12345);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Cdf, BuildFromDistinctSamples)
{
    auto cdf = buildCdf({3.0, 1.0, 2.0});
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
    EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
    EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Cdf, DuplicatesCollapseIntoOnePoint)
{
    auto cdf = buildCdf({1.0, 1.0, 1.0, 5.0});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
    EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.75);
    EXPECT_DOUBLE_EQ(cdf[1].fraction, 1.0);
}

TEST(Cdf, EmptyInput)
{
    EXPECT_TRUE(buildCdf({}).empty());
}

TEST(Cdf, ThinKeepsEndpointsAndIsMonotone)
{
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i)
        samples.push_back(static_cast<double>(i));
    auto cdf = buildCdf(samples);
    auto thin = thinCdf(cdf, 10);
    ASSERT_EQ(thin.size(), 10u);
    EXPECT_DOUBLE_EQ(thin.front().x, cdf.front().x);
    EXPECT_DOUBLE_EQ(thin.back().x, cdf.back().x);
    for (std::size_t i = 1; i < thin.size(); ++i)
        EXPECT_LE(thin[i - 1].fraction, thin[i].fraction);
}

TEST(Cdf, ThinNoOpWhenSmall)
{
    auto cdf = buildCdf({1.0, 2.0});
    EXPECT_EQ(thinCdf(cdf, 10).size(), 2u);
}

TEST(StatSet, SetGetAddHas)
{
    StatSet s;
    s.set("a.b", 1.5);
    s.add("a.b", 0.5);
    s.add("fresh", 2.0);
    EXPECT_DOUBLE_EQ(s.get("a.b"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("fresh"), 2.0);
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatSet, FormatContainsAllNames)
{
    StatSet s;
    s.set("alpha", 1);
    s.set("beta.gamma", 2);
    const std::string text = s.format();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta.gamma"), std::string::npos);
}

TEST(StatSetDeath, GetUnknownPanics)
{
    StatSet s;
    EXPECT_DEATH((void)s.get("nope"), "unknown stat");
}

} // namespace
} // namespace zombie

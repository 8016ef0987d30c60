/**
 * @file
 * Tests for the bounded-buffer reuse analysis (Figures 5/6).
 */

#include <gtest/gtest.h>

#include "analysis/lifecycle.hh"
#include "analysis/reuse.hh"
#include "dvp/mq_dvp.hh"
#include "trace/generator.hh"

namespace zombie
{
namespace
{

/** An LRU pool: the MQ pool with one queue. */
std::unique_ptr<DeadValuePool>
lruPool(std::uint64_t capacity)
{
    return std::make_unique<MqDvp>(
        MqDvpConfig{.capacity = capacity, .numQueues = 1});
}

TraceRecord
wr(Lpn lpn, std::uint64_t vid)
{
    TraceRecord r;
    r.op = OpType::Write;
    r.lpn = lpn;
    r.valueId = vid;
    r.fp = Fingerprint::fromValueId(vid);
    return r;
}

TEST(ReuseAnalyzer, SimpleDeathAndRebirthIsReused)
{
    ReuseAnalyzer a(lruPool(100));
    a.observe(wr(0, 1));
    a.observe(wr(0, 2)); // value 1 dies -> buffered
    a.observe(wr(1, 1)); // rebirth: reused
    const ReuseResult r = a.result();
    EXPECT_EQ(r.writes, 3u);
    EXPECT_EQ(r.reusedWrites, 1u);
    EXPECT_EQ(r.actualWrites(), 2u);
    EXPECT_EQ(r.capacityMisses, 0u);
}

TEST(ReuseAnalyzer, CapacityMissCountedAgainstInfinite)
{
    // Buffer of 1 entry: value 1's garbage is evicted by value 2's
    // before its rebirth arrives; the infinite buffer would have hit.
    ReuseAnalyzer a(lruPool(1));
    a.observe(wr(0, 1));
    a.observe(wr(0, 2)); // 1 dies, buffered
    a.observe(wr(1, 2)); // extra copy of 2
    a.observe(wr(1, 3)); // a 2-copy dies, evicting 1's entry
    a.observe(wr(2, 1)); // rebirth of 1: bounded miss, infinite hit
    const ReuseResult r = a.result();
    EXPECT_EQ(r.capacityMisses, 1u);
    EXPECT_EQ(r.reusedWrites, 0u);
}

TEST(ReuseAnalyzer, ReadsDoNotAffectCounting)
{
    ReuseAnalyzer a(lruPool(10));
    TraceRecord read = wr(0, 1);
    a.observe(wr(0, 1));
    read.op = OpType::Read;
    a.observe(read);
    EXPECT_EQ(a.result().writes, 1u);
}

TEST(ReuseAnalyzer, MissBreakdownBinsByPopularityDegree)
{
    ReuseAnalyzer a(lruPool(1));
    // Value 1 written 3 times, values 2..4 once each.
    a.observe(wr(0, 1));
    a.observe(wr(1, 2));
    a.observe(wr(2, 3));
    a.observe(wr(3, 4));
    a.observe(wr(0, 1)); // same-content rewrite (death+instant reuse)
    a.observe(wr(0, 1));
    const auto bins = a.missBreakdown();
    ASSERT_FALSE(bins.empty());
    std::uint64_t total_values = 0;
    for (const auto &bin : bins)
        total_values += bin.valueCount;
    EXPECT_EQ(total_values, 4u);
    // Bin keyed by degree 3 holds exactly value 1.
    bool found = false;
    for (const auto &bin : bins) {
        if (bin.popularityDegree == 3) {
            EXPECT_EQ(bin.valueCount, 1u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(ReuseAnalyzer, InfiniteEquivalenceOnLargeBuffer)
{
    // A buffer that never fills behaves exactly like the infinite
    // model: zero capacity misses, and the reuse count equals the
    // lifecycle tracker's reusable-write count.
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 30'000, 9);
    const auto trace = SyntheticTraceGenerator(profile).generateAll();

    LifecycleTracker ideal;
    ideal.observeAll(trace);

    const ReuseResult bounded = analyzeLruReuse(trace, 10'000'000);
    EXPECT_EQ(bounded.capacityMisses, 0u);
    EXPECT_EQ(bounded.reusedWrites, ideal.summary().reusableWrites);
}

TEST(ReuseAnalyzer, SmallerBuffersReuseLess)
{
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 40'000, 9);
    const auto trace = SyntheticTraceGenerator(profile).generateAll();
    const ReuseResult tiny = analyzeLruReuse(trace, 200);
    const ReuseResult small = analyzeLruReuse(trace, 2'000);
    const ReuseResult big = analyzeLruReuse(trace, 200'000);
    EXPECT_LE(tiny.reusedWrites, small.reusedWrites);
    EXPECT_LE(small.reusedWrites, big.reusedWrites);
    EXPECT_GT(tiny.capacityMisses, big.capacityMisses);
}

TEST(ReuseAnalyzer, MqBeatsLruUnderCapacityPressure)
{
    // The paper's central claim (Figures 5/6 -> section III): with
    // popularity-skewed rebirths and a tight buffer, MQ retains the
    // popular values LRU evicts.
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 60'000, 9);
    const auto trace = SyntheticTraceGenerator(profile).generateAll();

    const std::uint64_t capacity = 400; // tight
    const ReuseResult lru = analyzeLruReuse(trace, capacity);
    const ReuseResult mq = analyzeMqReuse(trace, capacity, 8);
    EXPECT_GT(mq.reusedWrites, lru.reusedWrites);
}

TEST(ReuseAnalyzer, PopularValuesSufferMostLruMisses)
{
    // Figure 6's shape: average misses grow with popularity degree.
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 60'000, 9);
    const auto trace = SyntheticTraceGenerator(profile).generateAll();

    ReuseAnalyzer a(lruPool(400));
    a.observeAll(trace);
    const auto bins = a.missBreakdown();
    ASSERT_GT(bins.size(), 3u);
    // Once-written values can never be reused, so their bin shows no
    // misses; the peak must sit at a popular degree (paper Figure 6).
    double max_misses = 0.0;
    std::uint64_t max_degree = 0;
    for (const auto &bin : bins) {
        if (bin.avgMisses > max_misses) {
            max_misses = bin.avgMisses;
            max_degree = bin.popularityDegree;
        }
    }
    EXPECT_GT(max_misses, 0.0);
    EXPECT_GT(max_degree, 1u);
}

TEST(ReuseAnalyzerDeath, NullPoolPanics)
{
    EXPECT_DEATH({ ReuseAnalyzer a(nullptr); }, "needs a pool");
}

} // namespace
} // namespace zombie

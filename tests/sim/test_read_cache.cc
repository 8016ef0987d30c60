/**
 * @file
 * Tests for the controller read cache.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/read_cache.hh"
#include "sim/ssd.hh"
#include "trace/generator.hh"

namespace zombie
{
namespace
{

TEST(ReadCache, DisabledCacheNeverHits)
{
    ReadCache cache(0);
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.access(1));
    EXPECT_FALSE(cache.access(1));
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ReadCache, SecondAccessHits)
{
    ReadCache cache(4);
    EXPECT_FALSE(cache.access(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ReadCache, LruEviction)
{
    ReadCache cache(2);
    cache.access(1);
    cache.access(2);
    cache.access(3); // evicts 1
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.access(1)); // miss; evicts 2
    EXPECT_TRUE(cache.access(3));
}

TEST(ReadCache, HitRefreshesRecency)
{
    ReadCache cache(2);
    cache.access(1);
    cache.access(2);
    cache.access(1); // 1 is now MRU
    cache.access(3); // evicts 2
    EXPECT_TRUE(cache.access(1));
    EXPECT_FALSE(cache.access(2));
}

TEST(ReadCache, InvalidateDropsEntry)
{
    ReadCache cache(4);
    cache.access(1);
    cache.invalidate(1);
    EXPECT_FALSE(cache.access(1));
    EXPECT_EQ(cache.stats().invalidations, 1u);
    cache.invalidate(99); // unknown: no-op
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ReadCache, HitRateMath)
{
    ReadCache cache(4);
    cache.access(1);
    cache.access(1);
    cache.access(1);
    cache.access(2);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(ReadCacheSim, RepeatedReadsHitTheCache)
{
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Desktop, 1, 20'000, 3);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::Baseline);
    Ssd ssd(cfg);
    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    ssd.run(src);
    const SimResult r = ssd.result();
    EXPECT_GT(r.readCache.hits, 0u);
    // Functional conservation (the cache is a timing-layer overlay:
    // flash counters track logical accesses regardless of caching).
    EXPECT_EQ(r.flashReads - r.gcRelocations,
              r.reads - r.unmappedReads);
    // And every non-unmapped read was classified hit or miss.
    EXPECT_EQ(r.readCache.hits + r.readCache.misses,
              r.reads - r.unmappedReads);
}

TEST(ReadCacheSim, DisablingTheCacheSlowsHotReads)
{
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Desktop, 1, 20'000, 3);
    // Concentrate reads hard so the cache matters.
    profile.readLpnAlpha = 1.4;
    profile.coldReadFrac = 0.0;

    SsdConfig with = SsdConfig::forProfile(profile, SystemKind::Baseline);
    SsdConfig without = with;
    without.readCacheEntries = 0;

    Ssd a(with), b(without);
    const auto trace = std::make_shared<const std::vector<TraceRecord>>(
        SyntheticTraceGenerator(profile).generateAll());
    VectorSource src_a(trace), src_b(trace);
    a.run(src_a);
    b.run(src_b);
    EXPECT_LT(a.result().readLatency.mean(),
              b.result().readLatency.mean());
    EXPECT_EQ(b.result().readCache.hits, 0u);
}

TEST(ReadCacheSim, CacheTamesDedupReadHotspot)
{
    // Dedup maps every copy of a popular value onto one physical
    // page; the cache must absorb the resulting read hotspot.
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Desktop, 1, 30'000, 3);
    SsdConfig with = SsdConfig::forProfile(profile, SystemKind::Dedup);
    SsdConfig without = with;
    without.readCacheEntries = 0;

    Ssd a(with), b(without);
    const auto trace = std::make_shared<const std::vector<TraceRecord>>(
        SyntheticTraceGenerator(profile).generateAll());
    VectorSource src_a(trace), src_b(trace);
    a.run(src_a);
    b.run(src_b);
    EXPECT_LE(a.result().readLatency.mean(),
              b.result().readLatency.mean());
}

} // namespace
} // namespace zombie

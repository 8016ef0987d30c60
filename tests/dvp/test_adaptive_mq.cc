/**
 * @file
 * Tests for the adaptive-capacity MQ pool — the paper's footnote 5
 * future work ("dynamically tuning the total capacity for MQ").
 */

#include <gtest/gtest.h>

#include "dvp/mq_dvp.hh"

namespace zombie
{
namespace
{

Fingerprint
fp(std::uint64_t id)
{
    return Fingerprint::fromValueId(id);
}

MqDvpConfig
adaptiveConfig()
{
    MqDvpConfig cfg;
    cfg.capacity = 64;
    cfg.numQueues = 4;
    cfg.adaptive = true;
    cfg.adaptiveMin = 16;
    cfg.adaptiveMax = 1024;
    cfg.adaptiveWindow = 100;
    cfg.adaptiveRegretThreshold = 10;
    return cfg;
}

/** Cycle of inserts+lookups over a working set larger than the pool:
 *  every miss of an evicted value is a regret. */
void
thrash(MqDvp &pool, std::uint64_t working_set, int rounds,
       Ppn &next_ppn)
{
    for (int r = 0; r < rounds; ++r) {
        for (std::uint64_t v = 0; v < working_set; ++v) {
            pool.insertGarbage(fp(v), v, next_ppn++, 1);
            pool.lookupForWrite(fp((v * 7 + 1) % working_set), v);
        }
    }
}

TEST(AdaptiveMq, GrowsUnderRegret)
{
    MqDvp pool(adaptiveConfig());
    Ppn next_ppn = 0;
    thrash(pool, 400, 10, next_ppn); // working set >> capacity 64
    EXPECT_GT(pool.ghostHits(), 0u);
    EXPECT_GT(pool.adaptiveGrows(), 0u);
    EXPECT_GT(pool.capacity(), 64u);
    EXPECT_LE(pool.capacity(), 1024u);
}

TEST(AdaptiveMq, GrowthImprovesHitRate)
{
    MqDvpConfig fixed = adaptiveConfig();
    fixed.adaptive = false;
    MqDvp adaptive(adaptiveConfig()), frozen(fixed);
    Ppn a = 0, b = 0;
    thrash(adaptive, 400, 20, a);
    thrash(frozen, 400, 20, b);
    EXPECT_GT(adaptive.stats().hits, frozen.stats().hits);
}

TEST(AdaptiveMq, ShrinksWhenIdle)
{
    MqDvpConfig cfg = adaptiveConfig();
    cfg.capacity = 512;
    MqDvp pool(cfg);
    // A tiny working set: no evictions, pool mostly empty.
    Ppn next_ppn = 0;
    for (int i = 0; i < 2000; ++i) {
        pool.insertGarbage(fp(i % 8), 0, next_ppn++, 1);
        pool.lookupForWrite(fp(i % 8), 0);
    }
    EXPECT_GT(pool.adaptiveShrinks(), 0u);
    EXPECT_LT(pool.capacity(), 512u);
    EXPECT_GE(pool.capacity(), cfg.adaptiveMin);
}

TEST(AdaptiveMq, ShrinkEvictsDownToCapacity)
{
    MqDvpConfig cfg = adaptiveConfig();
    cfg.capacity = 128;
    cfg.adaptiveMin = 16;
    MqDvp pool(cfg);
    Ppn next_ppn = 0;
    // Fill to 60 entries (under half of 128) then go idle-ish with
    // repeated lookups of resident values.
    for (std::uint64_t v = 0; v < 60; ++v)
        pool.insertGarbage(fp(v), v, next_ppn++, 1);
    for (int i = 0; i < 1000; ++i)
        pool.lookupForWrite(fp(5000), 0); // misses, no ghost
    EXPECT_LE(pool.size(), pool.capacity());
}

TEST(AdaptiveMq, StaysWithinBounds)
{
    MqDvpConfig cfg = adaptiveConfig();
    cfg.adaptiveMax = 96;
    MqDvp pool(cfg);
    Ppn next_ppn = 0;
    thrash(pool, 500, 20, next_ppn);
    EXPECT_LE(pool.capacity(), 96u);
    EXPECT_GE(pool.capacity(), cfg.adaptiveMin);
}

TEST(AdaptiveMq, DisabledBehavesExactlyAsFixed)
{
    MqDvpConfig cfg = adaptiveConfig();
    cfg.adaptive = false;
    MqDvp pool(cfg);
    Ppn next_ppn = 0;
    thrash(pool, 400, 5, next_ppn);
    EXPECT_EQ(pool.capacity(), 64u);
    EXPECT_EQ(pool.adaptiveGrows(), 0u);
    EXPECT_EQ(pool.ghostHits(), 0u);
}

TEST(AdaptiveMqDeath, BadBoundsAreFatal)
{
    MqDvpConfig cfg = adaptiveConfig();
    cfg.adaptiveMin = 100;
    cfg.adaptiveMax = 50;
    EXPECT_EXIT({ MqDvp pool(cfg); }, testing::ExitedWithCode(1),
                "adaptiveMin");

    MqDvpConfig cfg2 = adaptiveConfig();
    cfg2.adaptiveWindow = 0;
    EXPECT_EXIT({ MqDvp pool(cfg2); }, testing::ExitedWithCode(1),
                "window");
}

TEST(AdaptiveMqDeath, ZeroCapacityIsFatal)
{
    // Capacity 0 means unbounded, which leaves nothing to adapt.
    MqDvpConfig cfg = adaptiveConfig();
    cfg.capacity = 0;
    EXPECT_EXIT({ MqDvp pool(cfg); }, testing::ExitedWithCode(1),
                "capacity");
}

} // namespace
} // namespace zombie

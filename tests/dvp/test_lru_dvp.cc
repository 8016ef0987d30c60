/**
 * @file
 * Tests for the LRU dead-value pool of Figures 5/6: the MQ pool with
 * one queue. The zero-capacity rejection is SsdConfig::validate()'s
 * (tests/sim/test_config.cc).
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

/** The LRU system's pool configuration. */
MqDvpConfig
lru(std::uint64_t capacity)
{
    return MqDvpConfig{.capacity = capacity, .numQueues = 1};
}

TEST(LruDvp, MissOnEmpty)
{
    MqDvp pool(lru(4));
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(LruDvp, InsertHitRemove)
{
    MqDvp pool(lru(4));
    pool.insertGarbage(fp(1), 0, 42, 1);
    const auto r = pool.lookupForWrite(fp(1), 0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.ppn, 42u);
    EXPECT_EQ(pool.size(), 0u);
}

TEST(LruDvp, EvictsLeastRecentlyUsed)
{
    MqDvp pool(lru(2));
    pool.insertGarbage(fp(1), 0, 1, 1);
    pool.insertGarbage(fp(2), 0, 2, 1);
    pool.insertGarbage(fp(3), 0, 3, 1); // evicts fp(1)
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
    EXPECT_TRUE(pool.lookupForWrite(fp(2), 0).hit);
    EXPECT_EQ(pool.stats().capacityEvictions, 1u);
}

TEST(LruDvp, ReinsertionRefreshesRecency)
{
    MqDvp pool(lru(2));
    pool.insertGarbage(fp(1), 0, 1, 1);
    pool.insertGarbage(fp(2), 0, 2, 1);
    pool.insertGarbage(fp(1), 1, 3, 1); // fp(1) now MRU (2 PPNs)
    pool.insertGarbage(fp(3), 0, 4, 1); // evicts fp(2)
    EXPECT_TRUE(pool.lookupForWrite(fp(1), 0).hit);
    EXPECT_FALSE(pool.lookupForWrite(fp(2), 0).hit);
}

TEST(LruDvp, PopularityIsIgnoredForReplacement)
{
    // The Figure 6 pathology: a popular value still evicts first if
    // it is least recent.
    MqDvp pool(lru(2));
    pool.insertGarbage(fp(1), 0, 1, 200); // very popular, oldest
    pool.insertGarbage(fp(2), 0, 2, 1);
    pool.insertGarbage(fp(3), 0, 3, 1); // evicts popular fp(1)
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(LruDvp, MultiplePpnsPerValue)
{
    MqDvp pool(lru(4));
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.insertGarbage(fp(1), 1, 11, 1);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.lookupForWrite(fp(1), 0).ppn, 11u);
    EXPECT_EQ(pool.lookupForWrite(fp(1), 0).ppn, 10u);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(LruDvp, OnEraseRemovesPpn)
{
    MqDvp pool(lru(4));
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.insertGarbage(fp(1), 1, 11, 1);
    pool.onErase(11);
    EXPECT_EQ(pool.lookupForWrite(fp(1), 0).ppn, 10u);
    pool.onErase(12345); // unknown: no-op
    EXPECT_EQ(pool.stats().gcEvictions, 1u);
}

TEST(LruDvp, EvictionDropsAllPpnsOfEntry)
{
    MqDvp pool(lru(1));
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.insertGarbage(fp(1), 1, 11, 1);
    pool.insertGarbage(fp(2), 0, 20, 1); // evicts fp(1) entirely
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
    // The erased PPNs must no longer be indexed.
    pool.onErase(10);
    pool.onErase(11);
    EXPECT_EQ(pool.stats().gcEvictions, 0u);
}

TEST(LruDvp, NameAndCapacity)
{
    MqDvp pool(lru(7));
    EXPECT_EQ(pool.name(), "lru");
    EXPECT_EQ(pool.capacity(), 7u);
}

} // namespace
} // namespace zombie

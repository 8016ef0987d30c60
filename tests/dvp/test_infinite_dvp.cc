/**
 * @file
 * Tests for the unbounded "Ideal" dead-value pool: the MQ pool with
 * one queue and capacity 0.
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

/** The Ideal system's pool configuration. */
const MqDvpConfig kIdeal{.capacity = 0, .numQueues = 1};

TEST(InfiniteDvp, NeverEvicts)
{
    MqDvp pool(kIdeal);
    for (std::uint64_t v = 0; v < 50000; ++v)
        pool.insertGarbage(fp(v), v, v, 1);
    EXPECT_EQ(pool.size(), 50000u);
    EXPECT_EQ(pool.stats().capacityEvictions, 0u);
    EXPECT_TRUE(pool.lookupForWrite(fp(0), 0).hit);
    EXPECT_TRUE(pool.lookupForWrite(fp(49999), 0).hit);
}

TEST(InfiniteDvp, CapacityReportsUnbounded)
{
    MqDvp pool(kIdeal);
    EXPECT_EQ(pool.capacity(), 0u);
    EXPECT_EQ(pool.name(), "infinite");
}

TEST(InfiniteDvp, HitConsumesOneCopy)
{
    MqDvp pool(kIdeal);
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.insertGarbage(fp(1), 1, 11, 1);
    EXPECT_TRUE(pool.lookupForWrite(fp(1), 0).hit);
    EXPECT_TRUE(pool.lookupForWrite(fp(1), 0).hit);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(InfiniteDvp, OnEraseRemovesSpecificCopy)
{
    MqDvp pool(kIdeal);
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.insertGarbage(fp(1), 1, 11, 1);
    pool.onErase(10);
    const auto r = pool.lookupForWrite(fp(1), 0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.ppn, 11u);
    EXPECT_EQ(pool.size(), 0u);
}

TEST(InfiniteDvp, OnEraseLastCopyDropsEntry)
{
    MqDvp pool(kIdeal);
    pool.insertGarbage(fp(1), 0, 10, 1);
    pool.onErase(10);
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(InfiniteDvp, PopularityAccumulates)
{
    MqDvp pool(kIdeal);
    pool.insertGarbage(fp(1), 0, 10, 4);
    pool.insertGarbage(fp(1), 1, 11, 6);
    EXPECT_EQ(pool.lookupForWrite(fp(1), 0).popularity, 7);
}

} // namespace
} // namespace zombie

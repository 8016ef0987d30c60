/**
 * @file
 * Tests for the MQ dead-value pool — the paper's core mechanism
 * (sections III-IV, Figure 7 semantics).
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
smallConfig(std::uint64_t capacity = 8, std::uint32_t queues = 4)
{
    MqDvpConfig cfg;
    cfg.capacity = capacity;
    cfg.numQueues = queues;
    cfg.defaultExpiryInterval = 1000;
    return cfg;
}

TEST(MqDvp, MissOnEmptyPool)
{
    MqDvp pool(smallConfig());
    const auto r = pool.lookupForWrite(fp(1), 0);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(pool.stats().lookups, 1u);
    EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(MqDvp, InsertThenHitRevivesThatPpn)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(1), 10, 555, 1);
    const auto r = pool.lookupForWrite(fp(1), 11);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.ppn, 555u);
    EXPECT_EQ(r.popularity, 2); // 1 at death + 1 for this write
    // Single-PPN entry is removed on hit (section IV-C, Writes).
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 11).hit);
}

TEST(MqDvp, MultipleDeadCopiesServeMultipleWrites)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(7), 0, 100, 1);
    pool.insertGarbage(fp(7), 1, 101, 1);
    pool.insertGarbage(fp(7), 2, 102, 1);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.ppnCount(fp(7)), 3u);
    EXPECT_EQ(pool.stats().mergedInsertions, 2u);

    // Most recently deceased copy is revived first.
    EXPECT_EQ(pool.lookupForWrite(fp(7), 5).ppn, 102u);
    EXPECT_EQ(pool.lookupForWrite(fp(7), 5).ppn, 101u);
    EXPECT_EQ(pool.lookupForWrite(fp(7), 5).ppn, 100u);
    EXPECT_FALSE(pool.lookupForWrite(fp(7), 5).hit);
    EXPECT_EQ(pool.size(), 0u);
}

TEST(MqDvp, NewEntriesStartInQueueZero)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(1), 0, 1, 0);
    EXPECT_EQ(pool.queueOf(fp(1)), 0);
}

TEST(MqDvp, TargetQueueIsLogarithmic)
{
    MqDvp pool(smallConfig(100, 8));
    // log2(pop+1): pop 0 -> q0, 1 -> q1, 3 -> q2, 7 -> q3, 255 -> q7.
    EXPECT_EQ(pool.targetQueue(0), 0u);
    EXPECT_EQ(pool.targetQueue(1), 1u);
    EXPECT_EQ(pool.targetQueue(2), 1u);
    EXPECT_EQ(pool.targetQueue(3), 2u);
    EXPECT_EQ(pool.targetQueue(7), 3u);
    EXPECT_EQ(pool.targetQueue(15), 4u);
    EXPECT_EQ(pool.targetQueue(255), 7u);
}

TEST(MqDvp, TargetQueueClampsToHighestQueue)
{
    MqDvp pool(smallConfig(100, 3));
    EXPECT_EQ(pool.targetQueue(255), 2u);
}

TEST(MqDvp, PopularEntriesPromoteOneQueueAtATime)
{
    MqDvp pool(smallConfig(100, 8));
    // A popular value (pop 7 would target q3) still climbs one queue
    // per access, per the paper's promotion rule.
    pool.insertGarbage(fp(5), 0, 1, 7);
    EXPECT_EQ(pool.queueOf(fp(5)), 0);
    pool.insertGarbage(fp(5), 1, 2, 7);
    EXPECT_EQ(pool.queueOf(fp(5)), 1);
    pool.insertGarbage(fp(5), 2, 3, 7);
    EXPECT_EQ(pool.queueOf(fp(5)), 2);
    pool.insertGarbage(fp(5), 3, 4, 7);
    EXPECT_EQ(pool.queueOf(fp(5)), 3);
    // Target reached: further accesses stay at q3.
    pool.insertGarbage(fp(5), 4, 5, 7);
    EXPECT_EQ(pool.queueOf(fp(5)), 3);
    EXPECT_GE(pool.stats().promotions, 3u);
}

TEST(MqDvp, DirectPromotionJumpsToTarget)
{
    MqDvpConfig cfg = smallConfig(100, 8);
    cfg.directPromotion = true;
    MqDvp pool(cfg);
    pool.insertGarbage(fp(5), 0, 1, 7);
    pool.insertGarbage(fp(5), 1, 2, 7); // access -> jump to q3
    EXPECT_EQ(pool.queueOf(fp(5)), 3);
}

TEST(MqDvp, UnpopularEntriesDoNotPromote)
{
    MqDvp pool(smallConfig(100, 8));
    pool.insertGarbage(fp(6), 0, 1, 0);
    pool.insertGarbage(fp(6), 1, 2, 0);
    pool.insertGarbage(fp(6), 2, 3, 0);
    EXPECT_EQ(pool.queueOf(fp(6)), 0);
    EXPECT_EQ(pool.stats().promotions, 0u);
}

TEST(MqDvp, CapacityEvictionRemovesLowestQueueLruEntry)
{
    MqDvp pool(smallConfig(2, 4));
    pool.insertGarbage(fp(1), 0, 1, 0); // oldest, q0
    pool.insertGarbage(fp(2), 0, 2, 0);
    pool.insertGarbage(fp(3), 0, 3, 0); // evicts fp(1)
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.stats().capacityEvictions, 1u);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
    EXPECT_TRUE(pool.lookupForWrite(fp(2), 0).hit);
}

TEST(MqDvp, PromotedEntriesSurviveEvictionOverQ0Entries)
{
    // The MQ advantage over plain LRU: a popular (promoted) entry
    // outlives newer but unpopular entries under capacity pressure.
    MqDvp pool(smallConfig(3, 4));
    pool.insertGarbage(fp(1), 0, 1, 7);
    pool.insertGarbage(fp(1), 1, 2, 7); // promoted to q1
    ASSERT_EQ(pool.queueOf(fp(1)), 1);

    pool.insertGarbage(fp(2), 0, 10, 0); // q0
    pool.insertGarbage(fp(3), 0, 11, 0); // q0, pool full (3 entries)
    pool.insertGarbage(fp(4), 0, 12, 0); // evicts q0 LRU = fp(2)

    EXPECT_EQ(pool.stats().capacityEvictions, 1u);
    EXPECT_TRUE(pool.lookupForWrite(fp(1), 0).hit) << "popular entry "
                                                      "was evicted";
    EXPECT_FALSE(pool.lookupForWrite(fp(2), 0).hit);
}

TEST(MqDvp, OnEraseDropsPpnAndEmptyEntries)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(1), 0, 100, 1);
    pool.insertGarbage(fp(1), 1, 101, 1);
    pool.onErase(100);
    EXPECT_EQ(pool.ppnCount(fp(1)), 1u);
    EXPECT_EQ(pool.stats().gcEvictions, 1u);
    pool.onErase(101);
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_FALSE(pool.lookupForWrite(fp(1), 0).hit);
}

TEST(MqDvp, OnEraseOfUntrackedPpnIsNoOp)
{
    MqDvp pool(smallConfig());
    pool.onErase(999);
    EXPECT_EQ(pool.stats().gcEvictions, 0u);
}

TEST(MqDvp, ExpiredHeadsDemoteOnInsert)
{
    MqDvpConfig cfg = smallConfig(100, 4);
    cfg.defaultExpiryInterval = 5;
    cfg.expiryFloorOfCapacity = 0.0; // literal hottest-interval rule
    MqDvp pool(cfg);
    // Promote an entry to q1.
    pool.insertGarbage(fp(1), 0, 1, 3);
    pool.insertGarbage(fp(1), 1, 2, 3);
    ASSERT_EQ(pool.queueOf(fp(1)), 1);

    // Advance the write clock beyond the expiry interval.
    for (int i = 0; i < 10; ++i)
        pool.lookupForWrite(fp(99), 0);

    // The demotion module runs on the next insert.
    pool.insertGarbage(fp(2), 0, 3, 0);
    EXPECT_EQ(pool.queueOf(fp(1)), 0);
    EXPECT_GE(pool.stats().demotions, 1u);
}

TEST(MqDvp, FreshEntriesDoNotDemote)
{
    MqDvpConfig cfg = smallConfig(100, 4);
    cfg.defaultExpiryInterval = 1'000'000;
    MqDvp pool(cfg);
    pool.insertGarbage(fp(1), 0, 1, 3);
    pool.insertGarbage(fp(1), 1, 2, 3);
    ASSERT_EQ(pool.queueOf(fp(1)), 1);
    pool.insertGarbage(fp(2), 0, 3, 0);
    EXPECT_EQ(pool.queueOf(fp(1)), 1);
    EXPECT_EQ(pool.stats().demotions, 0u);
}

TEST(MqDvp, HottestIntervalLearnedFromAccessGap)
{
    MqDvpConfig cfg = smallConfig(100, 4);
    cfg.defaultExpiryInterval = 12345;
    cfg.expiryFloorOfCapacity = 0.0; // literal hottest-interval rule
    MqDvp pool(cfg);
    EXPECT_EQ(pool.hotInterval(), 12345u);

    pool.insertGarbage(fp(1), 0, 1, 5); // hottest (pop 5)
    // Advance the clock by 7 writes.
    for (int i = 0; i < 7; ++i)
        pool.lookupForWrite(fp(99), 0);
    pool.insertGarbage(fp(1), 1, 2, 5); // second access of hottest
    EXPECT_EQ(pool.hotInterval(), 7u);
}

TEST(MqDvp, WriteClockAdvancesOnLookups)
{
    MqDvp pool(smallConfig());
    EXPECT_EQ(pool.writeClock(), 0u);
    pool.lookupForWrite(fp(1), 0);
    pool.lookupForWrite(fp(2), 0);
    EXPECT_EQ(pool.writeClock(), 2u);
}

TEST(MqDvp, PopularityMergesByMaxAcrossCopies)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(1), 0, 1, 9);
    pool.insertGarbage(fp(1), 1, 2, 3); // lower-pop copy
    const auto r = pool.lookupForWrite(fp(1), 0);
    EXPECT_EQ(r.popularity, 10); // max(9,3) + 1
}

TEST(MqDvp, PopularitySaturatesAt255)
{
    MqDvp pool(smallConfig());
    pool.insertGarbage(fp(1), 0, 1, 255);
    EXPECT_EQ(pool.lookupForWrite(fp(1), 0).popularity, 255);
}

TEST(MqDvp, QueueLengthsTrackMembership)
{
    MqDvp pool(smallConfig(100, 4));
    pool.insertGarbage(fp(1), 0, 1, 0);
    pool.insertGarbage(fp(2), 0, 2, 0);
    EXPECT_EQ(pool.queueLength(0), 2u);
    EXPECT_EQ(pool.queueLength(1), 0u);
}

TEST(MqDvp, NameAndCapacityAccessors)
{
    MqDvp pool(smallConfig(42));
    EXPECT_EQ(pool.name(), "mq");
    EXPECT_EQ(pool.capacity(), 42u);
}

TEST(MqDvpDeath, ZeroQueuesIsFatal)
{
    MqDvpConfig cfg;
    cfg.numQueues = 0;
    EXPECT_EXIT({ MqDvp pool(cfg); }, testing::ExitedWithCode(1),
                "at least one queue");
}

TEST(MqDvp, StressManyValuesManyCopies)
{
    MqDvp pool(smallConfig(1000, 8));
    // Insert 2000 distinct values (forcing 1000 evictions), some with
    // several dead copies, and make sure internal structures agree.
    Ppn next_ppn = 0;
    for (std::uint64_t v = 0; v < 2000; ++v) {
        const int copies = 1 + static_cast<int>(v % 3);
        for (int c = 0; c < copies; ++c) {
            pool.insertGarbage(fp(v), v,
                               next_ppn++,
                               static_cast<std::uint8_t>(v % 16));
        }
    }
    EXPECT_EQ(pool.size(), 1000u);
    EXPECT_EQ(pool.stats().capacityEvictions, 1000u);
    std::uint64_t total = 0;
    for (std::uint32_t q = 0; q < 8; ++q)
        total += pool.queueLength(q);
    EXPECT_EQ(total, pool.size());
    // Recently inserted values must still be present.
    EXPECT_GT(pool.ppnCount(fp(1999)), 0u);
}

} // namespace
} // namespace zombie

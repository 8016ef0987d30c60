/**
 * @file
 * Tests for the refcounted fingerprint store.
 */

#include <gtest/gtest.h>

#include "dedup/fingerprint_store.hh"

namespace zombie
{
namespace
{

Fingerprint
fp(std::uint64_t id)
{
    return Fingerprint::fromValueId(id);
}

TEST(FingerprintStore, LookupMissOnEmpty)
{
    FingerprintStore store;
    EXPECT_FALSE(store.lookup(fp(1)).has_value());
    EXPECT_EQ(store.stats().lookups, 1u);
}

TEST(FingerprintStore, RegisterThenLookup)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    const auto hit = store.lookup(fp(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 100u);
    EXPECT_TRUE(store.contains(fp(1)));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.refCount(fp(1)), 1u);
}

TEST(FingerprintStore, FindReadsEntryWithoutCountingLookups)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    store.addReference(fp(1));
    const FingerprintStore::Entry *entry = store.find(fp(1));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ppn, 100u);
    EXPECT_EQ(entry->refs, 2u);
    EXPECT_EQ(entry->pop, 2);
    EXPECT_EQ(store.stats().lookups, 0u);
}

TEST(FingerprintStore, AddReferenceBumpsRefAndPopularity)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    EXPECT_EQ(store.addReference(fp(1)), 2);
    EXPECT_EQ(store.addReference(fp(1)), 3);
    EXPECT_EQ(store.refCount(fp(1)), 3u);
    EXPECT_EQ(store.popularity(fp(1)), 3);
    EXPECT_EQ(store.stats().hits, 2u);
}

TEST(FingerprintStore, ReleaseCountsDownToGarbage)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    store.addReference(fp(1));
    EXPECT_EQ(store.releaseReference(fp(1)), 1u);
    EXPECT_TRUE(store.contains(fp(1)));
    EXPECT_EQ(store.releaseReference(fp(1)), 0u);
    EXPECT_FALSE(store.contains(fp(1)));
    EXPECT_EQ(store.refCount(fp(1)), 0u);
    EXPECT_EQ(store.stats().lastRefDrops, 1u);
    EXPECT_EQ(store.size(), 0u);
}

TEST(FingerprintStore, RelocateMovesIndex)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    store.relocate(fp(1), 200);
    EXPECT_EQ(*store.lookup(fp(1)), 200u);
    EXPECT_EQ(store.refCount(fp(1)), 1u);
}

TEST(FingerprintStore, ReRegisterAfterDropIsAllowed)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    store.releaseReference(fp(1));
    store.registerPage(fp(1), 300); // content written again
    EXPECT_EQ(*store.lookup(fp(1)), 300u);
}

TEST(FingerprintStore, PopularitySaturates)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    for (int i = 0; i < 300; ++i)
        store.addReference(fp(1));
    EXPECT_EQ(store.popularity(fp(1)), 255);
}

TEST(FingerprintStore, UntrackedQueriesReturnZero)
{
    FingerprintStore store;
    EXPECT_EQ(store.refCount(fp(9)), 0u);
    EXPECT_EQ(store.popularity(fp(9)), 0);
    EXPECT_EQ(store.find(fp(9)), nullptr);
}

TEST(FingerprintStoreDeath, DoubleRegisterPanics)
{
    FingerprintStore store;
    store.registerPage(fp(1), 100);
    EXPECT_DEATH(store.registerPage(fp(1), 200), "already live");
}

TEST(FingerprintStoreDeath, ReleaseUntrackedPanics)
{
    FingerprintStore store;
    EXPECT_DEATH((void)store.releaseReference(fp(5)), "untracked");
}

TEST(FingerprintStoreDeath, AddReferenceUnknownPanics)
{
    FingerprintStore store;
    EXPECT_DEATH((void)store.addReference(fp(3)), "unknown content");
}

TEST(FingerprintStoreDeath, RelocateUntrackedPanics)
{
    FingerprintStore store;
    EXPECT_DEATH(store.relocate(fp(1), 2), "relocate");
}

} // namespace
} // namespace zombie

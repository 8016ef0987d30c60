/**
 * @file
 * Tests for the LPN-to-PPN mapping table (paper Figure 8).
 */

#include <gtest/gtest.h>

#include "ftl/mapping.hh"

namespace zombie
{
namespace
{

TEST(Mapping, StartsUnmapped)
{
    MappingTable map(16, 32);
    for (Lpn l = 0; l < 16; ++l) {
        EXPECT_FALSE(map.isMapped(l));
        EXPECT_EQ(map.ppnOf(l), kInvalidPpn);
    }
    EXPECT_EQ(map.mappedCount(), 0u);
}

TEST(Mapping, MapAndReverse)
{
    MappingTable map(16, 32);
    map.map(3, 20);
    EXPECT_TRUE(map.isMapped(3));
    EXPECT_EQ(map.ppnOf(3), 20u);
    EXPECT_EQ(map.lpnOf(20), 3u);
    EXPECT_EQ(map.mappedCount(), 1u);
}

TEST(Mapping, RemapUpdatesCountOnce)
{
    MappingTable map(16, 32);
    map.map(3, 20);
    map.map(3, 21);
    EXPECT_EQ(map.mappedCount(), 1u);
    EXPECT_EQ(map.ppnOf(3), 21u);
    EXPECT_EQ(map.lpnOf(21), 3u);
}

TEST(Mapping, UnmapClearsBothDirections)
{
    MappingTable map(16, 32);
    map.map(3, 20);
    map.unmap(3);
    EXPECT_FALSE(map.isMapped(3));
    EXPECT_EQ(map.lpnOf(20), kInvalidLpn);
    EXPECT_EQ(map.mappedCount(), 0u);
    map.unmap(3); // idempotent
    EXPECT_EQ(map.mappedCount(), 0u);
}

TEST(Mapping, ClearReverseLeavesForwardIntact)
{
    MappingTable map(16, 32);
    map.map(3, 20);
    map.clearReverse(20);
    EXPECT_EQ(map.lpnOf(20), kInvalidLpn);
    EXPECT_EQ(map.ppnOf(3), 20u);
}

TEST(Mapping, PopularityByteRoundTrips)
{
    MappingTable map(16, 32);
    EXPECT_EQ(map.popularity(5), 0);
    map.setPopularity(5, 200);
    EXPECT_EQ(map.popularity(5), 200);
}

TEST(Mapping, FingerprintShadowRoundTrips)
{
    MappingTable map(16, 32);
    const Fingerprint f = Fingerprint::fromValueId(77);
    map.setFingerprint(2, f);
    EXPECT_EQ(map.fingerprintOf(2), f);
}

TEST(Mapping, EntryCostMatchesFigure8)
{
    // Figure 8: PPN plus a 1-byte popularity degree per LPN; the
    // table stores the PPN in 32 bits.
    EXPECT_EQ(MappingTable::bytesPerEntry(), 5u);
}

TEST(Mapping, HighestPagesRoundTrip)
{
    // The last LPN and PPN of a table keep their 64-bit values
    // through the 32-bit storage.
    MappingTable map(16, 32);
    map.map(15, 31);
    EXPECT_EQ(map.ppnOf(15), 31u);
    EXPECT_EQ(map.lpnOf(31), 15u);
    map.unmap(15);
    EXPECT_EQ(map.ppnOf(15), kInvalidPpn);
    EXPECT_EQ(map.lpnOf(31), kInvalidLpn);
}

TEST(MappingDeath, LogicalSpaceLargerThanPhysicalIsFatal)
{
    EXPECT_EXIT({ MappingTable map(64, 32); },
                testing::ExitedWithCode(1), "smaller than logical");
}

TEST(MappingDeath, DrivePastThe32BitCeilingIsFatalBeforeAllocating)
{
    // The check runs in the first member's initializer: a table that
    // built its reverse map first would ask for 16 GiB here.
    EXPECT_EXIT({ MappingTable map(1, kMaxDrivePages + 1); },
                testing::ExitedWithCode(1),
                "drive of 4294967296 pages exceeds the 4294967295-page "
                "ceiling");
}

TEST(MappingDeath, EmptyLogicalSpaceIsFatal)
{
    EXPECT_EXIT({ MappingTable map(0, 32); },
                testing::ExitedWithCode(1), "non-empty");
}

TEST(MappingDeath, OutOfBoundsAccessPanics)
{
    MappingTable map(16, 32);
    EXPECT_DEATH((void)map.ppnOf(16), "out of bounds");
    EXPECT_DEATH(map.map(0, 32), "out of bounds");
    EXPECT_DEATH((void)map.lpnOf(32), "out of bounds");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Tests for the 32-bit page-number storage helpers and the drive
 * ceiling they impose.
 */

#include <gtest/gtest.h>

#include "util/types.hh"

namespace zombie
{
namespace
{

TEST(StoredPage, InvalidRoundTrips)
{
    EXPECT_EQ(narrowPage(kInvalidPpn), kNoStoredPage);
    EXPECT_EQ(narrowPage(kInvalidLpn), kNoStoredPage);
    EXPECT_EQ(widenPage(kNoStoredPage), kInvalidPpn);
}

TEST(StoredPage, ValidPagesRoundTrip)
{
    // 2^32 - 2 is the highest PPN of a drive at the ceiling.
    for (const std::uint64_t page :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 31,
          (std::uint64_t{1} << 32) - 2}) {
        EXPECT_EQ(narrowPage(page), page);
        EXPECT_EQ(widenPage(narrowPage(page)), page);
    }
}

TEST(StoredPage, CeilingLeavesTheSentinelFree)
{
    EXPECT_EQ(kMaxDrivePages, (std::uint64_t{1} << 32) - 1);
    EXPECT_EQ(sizeof(StoredPage), 4u);
}

TEST(StoredPageDeath, NarrowingPastTheSentinelPanics)
{
    // Wrapping would alias page 2^32 - 1 with "no page" and 2^40
    // with page 0; both must stop the simulator instead.
    EXPECT_DEATH((void)narrowPage((std::uint64_t{1} << 32) - 1),
                 "page number 4294967295 does not fit 32-bit storage");
    EXPECT_DEATH((void)narrowPage(std::uint64_t{1} << 40),
                 "page number 1099511627776 does not fit");
}

TEST(StoredPageDeath, DrivePastTheCeilingIsFatal)
{
    checkDrivePages(kMaxDrivePages); // at the ceiling: accepted
    EXPECT_EXIT(checkDrivePages(kMaxDrivePages + 1),
                testing::ExitedWithCode(1),
                "drive of 4294967296 pages exceeds the 4294967295-page "
                "ceiling of 32-bit page tables");
}

} // namespace
} // namespace zombie

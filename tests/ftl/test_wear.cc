/**
 * @file
 * Tests for wear accounting and the victim selector's wear
 * tie-break.
 */

#include <gtest/gtest.h>

#include "ftl/gc_policy.hh"
#include "ftl/wear.hh"

namespace zombie
{
namespace
{

Geometry
tinyGeom()
{
    return Geometry(1, 1, 1, 1, 4, 8);
}

TEST(WearSummary, FreshDriveHasNoWear)
{
    FlashArray flash(tinyGeom());
    const WearSummary s = summarizeWear(flash);
    EXPECT_EQ(s.minErase, 0u);
    EXPECT_EQ(s.maxErase, 0u);
    EXPECT_EQ(s.skew(), 0u);
    EXPECT_DOUBLE_EQ(s.meanErase, 0.0);
    EXPECT_DOUBLE_EQ(s.stddevErase, 0.0);
}

TEST(WearSummary, TracksSkewedErases)
{
    FlashArray flash(tinyGeom());
    for (int i = 0; i < 6; ++i)
        flash.eraseBlock(0);
    for (int i = 0; i < 2; ++i)
        flash.eraseBlock(1);
    const WearSummary s = summarizeWear(flash);
    EXPECT_EQ(s.minErase, 0u);
    EXPECT_EQ(s.maxErase, 6u);
    EXPECT_EQ(s.skew(), 6u);
    EXPECT_DOUBLE_EQ(s.meanErase, 2.0); // (6+2+0+0)/4
    EXPECT_GT(s.stddevErase, 0.0);
}

/** Fill a block and invalidate n pages. */
void
makeVictim(FlashArray &flash, std::uint64_t block, int invalid)
{
    std::vector<Ppn> pages;
    for (std::uint32_t i = 0; i < flash.geometry().pagesPerBlock(); ++i)
        pages.push_back(flash.programPage(block));
    for (int i = 0; i < invalid; ++i)
        flash.invalidatePage(pages[static_cast<std::size_t>(i)], 0);
}

TEST(WearAwareGc, BreaksNearTiesTowardLessWornBlock)
{
    FlashArray flash(tinyGeom());
    // Block 0: slightly more garbage but much more worn.
    for (int i = 0; i < 10; ++i)
        flash.eraseBlock(0);
    makeVictim(flash, 0, 6);
    makeVictim(flash, 1, 4); // within tolerance 4, unworn
    EXPECT_EQ(selectVictim(flash, {0, 1}, 0.0, 4), 1u);
}

TEST(WearAwareGc, RespectsClearlyBetterVictims)
{
    FlashArray flash(tinyGeom());
    for (int i = 0; i < 10; ++i)
        flash.eraseBlock(0);
    makeVictim(flash, 0, 8); // far outside tolerance
    makeVictim(flash, 1, 1);
    EXPECT_EQ(selectVictim(flash, {0, 1}, 0.0, 4), 0u);
}

TEST(WearAwareGc, ZeroToleranceIsBasePolicy)
{
    FlashArray flash(tinyGeom());
    for (int i = 0; i < 10; ++i)
        flash.eraseBlock(0);
    makeVictim(flash, 0, 5);
    makeVictim(flash, 1, 4);
    EXPECT_EQ(selectVictim(flash, {0, 1}, 0.0, 0), 0u);
}

} // namespace
} // namespace zombie

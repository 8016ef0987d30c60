/**
 * @file
 * Tests for GC victim selection, including the paper's
 * popularity-aware metric (section IV-D).
 */

#include <gtest/gtest.h>

#include "ftl/gc_policy.hh"

namespace zombie
{
namespace
{

Geometry
tinyGeom()
{
    return Geometry(1, 1, 1, 1, 4, 8);
}

/** Fill a block and invalidate n pages with a given popularity. */
void
makeVictim(FlashArray &flash, std::uint64_t block, int invalid,
           std::uint8_t pop)
{
    std::vector<Ppn> pages;
    for (std::uint32_t i = 0; i < flash.geometry().pagesPerBlock(); ++i)
        pages.push_back(flash.programPage(block));
    for (int i = 0; i < invalid; ++i)
        flash.invalidatePage(pages[static_cast<std::size_t>(i)], pop);
}

TEST(GreedyGc, PicksMostInvalidBlock)
{
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 2, 0);
    makeVictim(flash, 1, 6, 0);
    makeVictim(flash, 2, 4, 0);
    EXPECT_EQ(selectVictim(flash, {0, 1, 2}, 0.0), 1u);
}

TEST(GreedyGc, FirstWinsOnTies)
{
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 3, 0);
    makeVictim(flash, 1, 3, 0);
    EXPECT_EQ(selectVictim(flash, {0, 1}, 0.0), 0u);
    EXPECT_EQ(selectVictim(flash, {1, 0}, 0.0), 1u);
}

TEST(PopularityAwareGc, AvoidsPopularGarbage)
{
    // Two blocks with equal invalid counts; the one whose garbage is
    // popular (likely to be revived) must be spared.
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 4, 250); // popular garbage
    makeVictim(flash, 1, 4, 1);   // cold garbage
    EXPECT_EQ(selectVictim(flash, {0, 1}, 1.0), 1u);
}

TEST(PopularityAwareGc, StillPrefersClearlyBetterVictims)
{
    // A hugely invalid block wins even if its garbage is warm.
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 8, 60); // all invalid, warm
    makeVictim(flash, 1, 1, 0);  // barely invalid, cold
    EXPECT_EQ(selectVictim(flash, {0, 1}, 1.0), 0u);
}

TEST(PopularityAwareGc, ScoreFormula)
{
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 2, 100); // invalid=2, popSum=200
    EXPECT_DOUBLE_EQ(victimScore(flash, 0, 2.0),
                     2.0 - 2.0 * 200.0 / 255.0);
}

TEST(PopularityAwareGc, ZeroWeightDegeneratesToGreedy)
{
    FlashArray flash(tinyGeom());
    makeVictim(flash, 0, 5, 255);
    makeVictim(flash, 1, 4, 0);
    EXPECT_EQ(selectVictim(flash, {0, 1}, 0.0), 0u);
}

TEST(GcPolicyFactory, BuildsBothPolicies)
{
    EXPECT_DOUBLE_EQ(gcPolicyWeight("greedy", 3.0), 0.0);
    EXPECT_DOUBLE_EQ(gcPolicyWeight("popularity", 3.0), 3.0);
}

TEST(GcPolicyFactoryDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)gcPolicyWeight("random", 1.0),
                testing::ExitedWithCode(1), "unknown GC policy");
    EXPECT_EXIT((void)gcPolicyWeight("wear:greedy", 1.0),
                testing::ExitedWithCode(1), "unknown GC policy");
}

TEST(GcPolicyDeath, EmptyCandidatesPanics)
{
    FlashArray flash(tinyGeom());
    EXPECT_DEATH((void)selectVictim(flash, {}, 0.0), "no");
    EXPECT_DEATH((void)selectVictim(flash, {}, 1.0), "no");
}

} // namespace
} // namespace zombie

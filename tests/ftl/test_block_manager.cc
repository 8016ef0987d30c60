/**
 * @file
 * Tests for free-block pools, write points and plane striping.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ftl/block_manager.hh"
#include "nand/resource_model.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

/** 2 channels x 2 chips, 1 die, 1 plane -> 4 planes of 4 blocks. */
Geometry
smallGeom()
{
    return Geometry(2, 2, 1, 1, 4, 8);
}

TEST(BlockManager, RoundRobinStripesChannelsFirst)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    // Planes 0,1 are channel 0; planes 2,3 channel 1. Channel-first
    // order alternates channels: 0, 2, 1, 3.
    EXPECT_EQ(mgr.nextUserPlane(), 0u);
    EXPECT_EQ(mgr.nextUserPlane(), 2u);
    EXPECT_EQ(mgr.nextUserPlane(), 1u);
    EXPECT_EQ(mgr.nextUserPlane(), 3u);
    EXPECT_EQ(mgr.nextUserPlane(), 0u); // wraps
}

TEST(BlockManager, AllocatePageProgramsSequentially)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Ppn a = mgr.allocatePage(0, false);
    const Ppn b = mgr.allocatePage(0, false);
    EXPECT_EQ(b, a + 1);
    EXPECT_EQ(flash.state(a), PageState::Valid);
}

TEST(BlockManager, ActiveBlockRollsOverWhenFull)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const std::uint32_t before = mgr.freeBlocks(0);
    Ppn last = kInvalidPpn;
    for (int i = 0; i < 9; ++i)
        last = mgr.allocatePage(0, false);
    // Ninth page lands in a second block.
    EXPECT_EQ(flash.geometry().blockOfPpn(last), 1u);
    EXPECT_EQ(mgr.freeBlocks(0), before - 2);
}

TEST(BlockManager, GcAndUserWritePointsAreSeparate)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Ppn user = mgr.allocatePage(0, false);
    const Ppn gc = mgr.allocatePage(0, true);
    EXPECT_NE(flash.geometry().blockOfPpn(user),
              flash.geometry().blockOfPpn(gc));
}

TEST(BlockManager, FreeBlockAccounting)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    // One block per plane is set aside as the GC reserve.
    EXPECT_EQ(mgr.freeBlocks(0), 3u);
    EXPECT_EQ(mgr.minFreeBlocks(), 3u);
    mgr.allocatePage(0, false); // pops one block for the write point
    EXPECT_EQ(mgr.freeBlocks(0), 2u);
    EXPECT_EQ(mgr.minFreeBlocks(), 2u);
}

TEST(BlockManager, ReleaseReturnsErasedBlock)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Ppn p = mgr.allocatePage(0, false);
    const std::uint64_t blk = flash.geometry().blockOfPpn(p);
    flash.invalidatePage(p, 0);
    flash.eraseBlock(blk);
    mgr.releaseBlock(blk);
    EXPECT_EQ(mgr.freeBlocks(0), 3u);
    EXPECT_FALSE(mgr.isActive(blk));
}

TEST(BlockManager, IsActiveTracksWritePoints)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Ppn user = mgr.allocatePage(0, false);
    const Ppn gc = mgr.allocatePage(0, true);
    EXPECT_TRUE(mgr.isActive(flash.geometry().blockOfPpn(user)));
    EXPECT_TRUE(mgr.isActive(flash.geometry().blockOfPpn(gc)));
    EXPECT_FALSE(mgr.isActive(3));
}

TEST(BlockManager, VictimCandidatesRequireFullBlocksWithGarbage)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    EXPECT_TRUE(mgr.victimCandidates(0).empty());

    // Fill one block completely and invalidate a page in it.
    Ppn first = kInvalidPpn;
    for (int i = 0; i < 8; ++i) {
        const Ppn p = mgr.allocatePage(0, false);
        if (i == 0)
            first = p;
    }
    // Block is full but still the active block until the next
    // allocation rolls over.
    flash.invalidatePage(first, 1);
    mgr.allocatePage(0, false); // roll to a new active block
    const auto candidates = mgr.victimCandidates(0);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], flash.geometry().blockOfPpn(first));
}

// The LoadProbe* cases drive dynamic allocation through a die-load
// view, the load source Ssd installs: smallGeom has one plane per
// die, so plane p reads die_busy[p].

TEST(BlockManager, LoadProbeSteersTowardIdlePlanes)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    // Plane 2 reports the lowest load.
    const Tick die_busy[] = {1000, 1000, 0, 1000};
    mgr.setDieLoadView(die_busy, 1);
    EXPECT_EQ(mgr.nextUserPlane(), 2u);
    EXPECT_EQ(mgr.nextUserPlane(), 2u);
}

TEST(BlockManager, LoadProbeTiesPreserveStriping)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Tick die_busy[] = {5, 5, 5, 5};
    mgr.setDieLoadView(die_busy, 1);
    // All equal: falls back to strict less-than scan from the RR
    // cursor, which yields the channel-striped order.
    EXPECT_EQ(mgr.nextUserPlane(), 0u);
    EXPECT_EQ(mgr.nextUserPlane(), 2u);
    EXPECT_EQ(mgr.nextUserPlane(), 1u);
}

TEST(BlockManager, LoadProbeSkipsPlanesWithoutRoom)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Tick die_busy[] = {0, 0, 0, 0};
    mgr.setDieLoadView(die_busy, 1);
    // Exhaust plane 0's user-visible blocks (3 of 4; one is the GC
    // reserve).
    for (int i = 0; i < 24; ++i)
        mgr.allocatePage(0, false);
    ASSERT_EQ(mgr.freeBlocks(0), 0u);
    // Dynamic allocation must avoid plane 0 now.
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(mgr.nextUserPlane(), 0u);
}

// Ssd installs the resource model's die-group minima over its die
// table (setDieLoadGroups); the descent through the groups must pick
// the plane the flat die scan picks. One model drives two managers,
// one per view. Host writes land on the plane the flat view picked;
// same-tick GC-style bursts leave several dies with one busy-until,
// so the minimum is sometimes shared and sometimes on one die.
TEST(BlockManager, DieGroupDescentMatchesFlatScan)
{
    // 4 ch x 8 chips x 4 dies x 2 planes: 128 dies in 8 groups of 16.
    const Geometry geom(4, 8, 4, 2, 4, 8);
    const std::uint64_t dies = geom.totalDies();
    const std::uint64_t blocks_per_die =
        std::uint64_t{geom.planesPerDie()} * geom.blocksPerPlane();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        ResourceModel model(geom, TimingModel{});
        ASSERT_EQ(dies / model.dieGroupDies(), 8u);
        FlashArray flat_flash(geom);
        FlashArray grouped_flash(geom);
        BlockManager flat(flat_flash);
        BlockManager grouped(grouped_flash);
        flat.setDieLoadView(model.dieBusyTable(), geom.planesPerDie());
        grouped.setDieLoadView(model.dieBusyTable(),
                               geom.planesPerDie());
        grouped.setDieLoadGroups(
            model.dieGroupMinTable(),
            static_cast<std::uint32_t>(model.dieGroupDies()));

        const Tick *busy = model.dieBusyTable();
        Xoshiro256 rng(seed);
        Tick now = 0;
        std::uint64_t one_die_min = 0;
        std::uint64_t shared_min = 0;
        for (int step = 0; step < 20'000; ++step) {
            const Tick low = *std::min_element(busy, busy + dies);
            if (std::count(busy, busy + dies, low) == 1)
                ++one_die_min;
            else
                ++shared_min;
            const std::uint64_t plane = flat.nextUserPlane();
            ASSERT_EQ(grouped.nextUserPlane(), plane)
                << "seed " << seed << " step " << step;
            model.scheduleOp(
                FlashOp::Program,
                geom.firstPpnOfBlock(plane * geom.blocksPerPlane()),
                now);
            if (rng.nextBool(0.05)) {
                const std::uint64_t burst = 2 + rng.nextBounded(15);
                for (std::uint64_t i = 0; i < burst; ++i) {
                    const std::uint64_t die = rng.nextBounded(dies);
                    model.scheduleOp(
                        FlashOp::Erase,
                        geom.firstPpnOfBlock(die * blocks_per_die),
                        now, true);
                }
            }
            now += rng.nextBounded(ticksFromUs(100));
        }
        EXPECT_GT(one_die_min, 0u) << "seed " << seed;
        EXPECT_GT(shared_min, 0u) << "seed " << seed;
    }
}

TEST(BlockManagerDeath, ExhaustedPlanePanics)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    for (int i = 0; i < 24; ++i)
        mgr.allocatePage(0, false);
    // User allocation cannot dip into the GC reserve.
    EXPECT_DEATH((void)mgr.allocatePage(0, false), "out of free");
}

TEST(BlockManagerDeath, ReleaseNonErasedBlockPanics)
{
    FlashArray flash(smallGeom());
    BlockManager mgr(flash);
    const Ppn p = mgr.allocatePage(0, false);
    EXPECT_DEATH(mgr.releaseBlock(flash.geometry().blockOfPpn(p)),
                 "non-erased");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Tests for the channel/die contention model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "nand/resource_model.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

/** Two channels, two chips each, one die/plane, for addressable dies. */
Geometry
smallGeom()
{
    return Geometry(2, 2, 1, 1, 4, 8);
}

TimingModel
timing()
{
    return TimingModel{};
}

TEST(ResourceModel, ReadLatencyComposition)
{
    ResourceModel rm(smallGeom(), timing());
    const TimingModel t = timing();
    const Tick done = rm.scheduleOp(FlashOp::Read, 0, 0);
    EXPECT_EQ(done, t.commandOverhead + t.readLatency + t.pageTransfer);
}

TEST(ResourceModel, ProgramLatencyComposition)
{
    ResourceModel rm(smallGeom(), timing());
    const TimingModel t = timing();
    const Tick done = rm.scheduleOp(FlashOp::Program, 0, 1000);
    EXPECT_EQ(done, 1000 + t.commandOverhead + t.pageTransfer +
                        t.programLatency);
}

TEST(ResourceModel, EraseLatencyComposition)
{
    ResourceModel rm(smallGeom(), timing());
    const TimingModel t = timing();
    const Tick done = rm.scheduleOp(FlashOp::Erase, 0, 0);
    EXPECT_EQ(done, t.commandOverhead + t.eraseLatency);
}

TEST(ResourceModel, SameDieOperationsSerialize)
{
    ResourceModel rm(smallGeom(), timing());
    const Tick first = rm.scheduleOp(FlashOp::Program, 0, 0);
    const Tick second = rm.scheduleOp(FlashOp::Program, 1, 0);
    EXPECT_GT(second, first);
}

TEST(ResourceModel, DifferentDiesRunInParallel)
{
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    // PPN 0 is on die 0; a PPN in another chip is on another die.
    const Ppn other_die =
        g.encode(PageAddress{0, 1, 0, 0, 0, 0});
    const Tick a = rm.scheduleOp(FlashOp::Program, 0, 0);
    const Tick b = rm.scheduleOp(FlashOp::Program, other_die, 0);
    // Dies overlap; only the shared channel transfer (plus command
    // cycles) serializes.
    EXPECT_EQ(b, a + timing().pageTransfer + timing().commandOverhead);
}

TEST(ResourceModel, DifferentChannelsFullyParallel)
{
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    const Ppn other_channel = g.encode(PageAddress{1, 0, 0, 0, 0, 0});
    const Tick a = rm.scheduleOp(FlashOp::Read, 0, 0);
    const Tick b = rm.scheduleOp(FlashOp::Read, other_channel, 0);
    EXPECT_EQ(a, b);
}

TEST(ResourceModel, EraseDoesNotHoldChannel)
{
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    const Ppn sibling = g.encode(PageAddress{0, 1, 0, 0, 0, 0});
    rm.scheduleOp(FlashOp::Erase, 0, 0);
    // A read on another die of the same channel is unaffected by the
    // 3.8ms erase.
    const Tick done = rm.scheduleOp(FlashOp::Read, sibling, 0);
    EXPECT_EQ(done, timing().commandOverhead + timing().readLatency +
                        timing().pageTransfer);
}

TEST(ResourceModel, BackloggedDieDoesNotStallItsChannel)
{
    // Horizon-ratchet regression test: pile work on die 0 far into
    // the future, then check a program to die 1 (same channel) still
    // starts promptly.
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    for (int i = 0; i < 50; ++i)
        rm.scheduleOp(FlashOp::Program, 0, 0);
    ASSERT_GT(rm.dieFreeAt(0), ticksFromMs(10));

    const Ppn sibling = g.encode(PageAddress{0, 1, 0, 0, 0, 0});
    const Tick done = rm.scheduleOp(FlashOp::Program, sibling, 0);
    EXPECT_LT(done, ticksFromMs(1));
}

TEST(ResourceModel, FutureReadTransferLeavesChannelOpen)
{
    // A read whose data-out lands far in the future must not reserve
    // the (currently idle) channel for the interim.
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    for (int i = 0; i < 50; ++i)
        rm.scheduleOp(FlashOp::Read, 0, 0);
    const Ppn sibling = g.encode(PageAddress{0, 1, 0, 0, 0, 0});
    const Tick done = rm.scheduleOp(FlashOp::Read, sibling, 0);
    EXPECT_EQ(done, timing().commandOverhead + timing().readLatency +
                        timing().pageTransfer);
}

TEST(ResourceModel, EarliestLowerBoundsStart)
{
    ResourceModel rm(smallGeom(), timing());
    const Tick done = rm.scheduleOp(FlashOp::Read, 0, ticksFromUs(500));
    EXPECT_GE(done, ticksFromUs(500) + timing().readLatency);
}

TEST(ResourceModel, FreeAtAccessorsTrackScheduling)
{
    ResourceModel rm(smallGeom(), timing());
    EXPECT_EQ(rm.dieFreeAt(0), 0u);
    EXPECT_EQ(rm.channelFreeAt(0), 0u);
    EXPECT_EQ(rm.dieFreeAtIndex(0), 0u);
    const Tick done = rm.scheduleOp(FlashOp::Program, 0, 0);
    EXPECT_EQ(rm.dieFreeAt(0), done);
    EXPECT_EQ(rm.dieFreeAtIndex(0), done);
    EXPECT_GT(rm.channelFreeAt(0), 0u);
}

TEST(ResourceModel, PendingAccountingTracksBacklog)
{
    const Geometry g = smallGeom();
    ResourceModel rm(g, timing());
    EXPECT_EQ(rm.dieBacklog(0), 0u);
    EXPECT_EQ(rm.maxDieBacklog(), 0u);

    // Three back-to-back programs on die 0: each later issue finds
    // every earlier op still incomplete.
    Tick last = 0;
    for (int i = 0; i < 3; ++i)
        last = rm.scheduleOp(FlashOp::Program, 0, 0);
    EXPECT_EQ(rm.dieBacklog(0), 3u);
    EXPECT_EQ(rm.maxDieBacklog(), 3u);
    EXPECT_EQ(rm.dieBacklog(1), 0u);

    // An op issued at the final completion finds every earlier op
    // retired; one issued a tick earlier still counts the last one.
    ResourceModel early(g, timing());
    for (int i = 0; i < 3; ++i)
        early.scheduleOp(FlashOp::Program, 0, 0);
    rm.scheduleOp(FlashOp::Program, 0, last);
    EXPECT_EQ(rm.dieBacklog(0), 1u);
    early.scheduleOp(FlashOp::Program, 0, last - 1);
    EXPECT_EQ(early.dieBacklog(0), 2u);
}

TEST(ResourceModel, PendingAccountingIsObservationOnly)
{
    // The horizon-ratchet rule: backlog bookkeeping must not move
    // any busy-until state. Two identical schedules, one interleaved
    // with accounting queries, end in identical resource states.
    const Geometry g = smallGeom();
    ResourceModel probed(g, timing());
    ResourceModel plain(g, timing());
    const Ppn sibling = g.encode(PageAddress{0, 1, 0, 0, 0, 0});
    for (int i = 0; i < 4; ++i) {
        plain.scheduleOp(FlashOp::Program, 0, 0);
        probed.scheduleOp(FlashOp::Program, 0, 0);
        (void)probed.dieBacklog(0);
    }
    EXPECT_EQ(probed.dieFreeAt(0), plain.dieFreeAt(0));
    EXPECT_EQ(probed.channelFreeAt(0), plain.channelFreeAt(0));
    EXPECT_EQ(probed.scheduleOp(FlashOp::Program, sibling, 0),
              plain.scheduleOp(FlashOp::Program, sibling, 0));
}

TEST(ResourceModel, BacklogWindowPrunesCompletedOps)
{
    // An op issued long after the die went idle sees an empty
    // backlog: completed work retires from the window.
    ResourceModel rm(smallGeom(), timing());
    const Tick first = rm.scheduleOp(FlashOp::Program, 0, 0);
    EXPECT_EQ(rm.dieBacklog(0), 1u);
    rm.scheduleOp(FlashOp::Program, 0, first + ticksFromMs(1));
    EXPECT_EQ(rm.dieBacklog(0), 1u);
    EXPECT_EQ(rm.maxDieBacklog(), 1u);
}

TEST(ResourceModel, UtilizationFractionsAreSane)
{
    ResourceModel rm(smallGeom(), timing());
    const Tick done = rm.scheduleOp(FlashOp::Program, 0, 0);
    const double die_util = rm.dieUtilization(done);
    const double chan_util = rm.channelUtilization(done);
    EXPECT_GT(die_util, 0.0);
    EXPECT_LE(die_util, 1.0);
    EXPECT_GT(chan_util, 0.0);
    EXPECT_LT(chan_util, die_util);
    EXPECT_DOUBLE_EQ(rm.dieUtilization(0), 0.0);
}

/**
 * The backlog window as a sorted deque of absolute completion ticks
 * per die, pruned at each issue point: the reference the gap-coded
 * window must match. It also classifies each gap to the previous
 * completion it sees against the three back-to-back die-occupancy
 * times, so a schedule can show it exercised both kinds.
 */
struct ReferenceWindows
{
    ReferenceWindows(std::uint64_t dies, const TimingModel &t)
        : windows(dies),
          backToBack{t.commandOverhead + t.readLatency + t.pageTransfer,
                     t.programLatency,
                     t.commandOverhead + t.eraseLatency}
    {
    }

    void
    issue(std::uint64_t die, Tick issued, Tick completion)
    {
        std::deque<Tick> &w = windows[die];
        while (!w.empty() && w.front() <= issued)
            w.pop_front();
        if (!w.empty()) {
            const Tick gap = completion - w.back();
            if (std::find(backToBack.begin(), backToBack.end(), gap) !=
                backToBack.end()) {
                ++matched;
            } else {
                ++other;
                if (gap >= (Tick(1) << 32))
                    ++wide;
            }
        }
        w.push_back(completion);
        high = std::max<std::uint64_t>(high, w.size());
    }

    std::vector<std::deque<Tick>> windows;
    std::array<Tick, 3> backToBack;
    std::uint64_t high = 0;
    std::uint64_t matched = 0; //!< gaps equal to a back-to-back time
    std::uint64_t other = 0;   //!< every other gap
    std::uint64_t wide = 0;    //!< other gaps of 2^32 ns or more
};

/**
 * Drive @p ops seeded calls through a ResourceModel and the
 * reference, checking every die's backlog and the high-water mark
 * after each call. Issue points come in bursts on one tick, short
 * steps, idle gaps and jumps past 2^32 ns, and some land exactly on
 * (or one tick before) a completion in the target die's window.
 */
ReferenceWindows
driveAgainstReference(const Geometry &g, const TimingModel &t,
                      std::uint64_t seed, int ops)
{
    std::vector<std::vector<Ppn>> die_pages(g.totalDies());
    for (Ppn ppn = 0; ppn < g.totalPages(); ++ppn)
        die_pages[g.dieOfPpn(ppn)].push_back(ppn);

    ResourceModel rm(g, t);
    ReferenceWindows ref(g.totalDies(), t);
    Xoshiro256 rng(seed);
    const Tick step = t.commandOverhead + t.readLatency + t.pageTransfer;
    Tick now = 0;
    Tick last = 0;
    std::uint64_t burst = 0;
    for (int i = 0; i < ops; ++i) {
        // The clock: held still through bursts, else short steps and
        // idle gaps, and now and then a jump past 2^32 ns.
        if (burst > 0) {
            --burst;
        } else {
            const std::uint64_t roll = rng.nextBounded(1000);
            if (roll < 4)
                burst = 50 + rng.nextBounded(200);
            else if (roll < 5)
                now += (Tick(1) << 32) + rng.nextBounded(step);
            else if (roll < 55)
                now += step * (1 + rng.nextBounded(4));
            else if (roll < 755)
                now += rng.nextBounded(2 * step);
        }

        const std::uint64_t die = rng.nextBounded(g.totalDies());
        const std::vector<Ppn> &pages = die_pages[die];
        const Ppn ppn = pages[rng.nextBounded(pages.size())];
        const std::uint64_t kind = rng.nextBounded(40);
        const FlashOp op = kind < 20   ? FlashOp::Read
                           : kind < 38 ? FlashOp::Program
                                       : FlashOp::Erase;

        // Mostly the running clock; else a chained step's start (the
        // previous completion), a window boundary of this die (on it
        // or one tick before), or a point less than a data-in before
        // the die frees, where a program's gap is not back-to-back.
        Tick earliest = now;
        const std::deque<Tick> &w = ref.windows[die];
        const std::uint64_t pick = rng.nextBounded(100);
        if (pick == 0) {
            earliest = last;
        } else if (pick < 10 && !w.empty()) {
            earliest = w[rng.nextBounded(w.size())] -
                       rng.nextBounded(2);
        } else if (pick < 20 && !w.empty()) {
            earliest = w.back() - 1 -
                       rng.nextBounded(t.commandOverhead +
                                       t.pageTransfer);
        }

        last = rm.scheduleOp(op, ppn, earliest);
        ref.issue(die, earliest, last);
        for (std::uint64_t d = 0; d < g.totalDies(); ++d) {
            if (rm.dieBacklog(d) != ref.windows[d].size()) {
                ADD_FAILURE() << "call " << i << ": die " << d
                              << " backlog " << rm.dieBacklog(d)
                              << ", reference "
                              << ref.windows[d].size();
                return ref;
            }
        }
        if (rm.maxDieBacklog() != ref.high) {
            ADD_FAILURE() << "call " << i << ": max backlog "
                          << rm.maxDieBacklog() << ", reference "
                          << ref.high;
            return ref;
        }
    }
    return ref;
}

/** Two channels of four dies each: transfers contend on a channel. */
Geometry
sharedChannelGeom()
{
    return Geometry(2, 4, 1, 1, 4, 8);
}

TEST(ResourceModel, GapCodedWindowMatchesReference)
{
    const ReferenceWindows ref = driveAgainstReference(
        sharedChannelGeom(), timing(), 7, 200'000);
    EXPECT_GE(ref.matched, 5000u);
    EXPECT_GE(ref.other, 5000u);
    // Bursts outgrow the code ring's reserve (4 blocks of 8 pages).
    EXPECT_GT(ref.high, 32u);
}

TEST(ResourceModel, GapCodedWindowWithEqualTimes)
{
    // A program occupies its die exactly as long as a read does, so
    // one code names both gaps and must decode to that one value.
    TimingModel t = timing();
    t.programLatency = t.commandOverhead + t.readLatency + t.pageTransfer;
    const ReferenceWindows ref =
        driveAgainstReference(sharedChannelGeom(), t, 11, 200'000);
    EXPECT_GE(ref.matched, 5000u);
    EXPECT_GE(ref.other, 5000u);
}

TEST(ResourceModel, GapCodedWindowWithGapsPast32Bits)
{
    // A transfer of more than 2^32 ns puts the read code's gap, and
    // the odd gap of every read that waits on the channel, past 32
    // bits.
    TimingModel t = timing();
    t.pageTransfer = (Tick(1) << 32) + 3;
    const ReferenceWindows ref =
        driveAgainstReference(sharedChannelGeom(), t, 13, 200'000);
    EXPECT_GE(ref.matched, 2000u);
    EXPECT_GE(ref.wide, 2000u);
}

} // namespace
} // namespace zombie

/**
 * @file
 * Tests for the trim/discard path and its dead-value-pool interplay:
 * trimmed content is dead content, so a later write of the same
 * value revives the trimmed page.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dvp/mq_dvp.hh"
#include "ftl/ftl.hh"

namespace zombie
{
namespace
{

Fingerprint
fp(std::uint64_t id)
{
    return Fingerprint::fromValueId(id);
}

struct TrimRig
{
    explicit TrimRig(bool with_dvp, bool with_dedup = false)
        : flash(Geometry(1, 1, 1, 1, 8, 8)),
          ftl(flash, FtlConfig{.logicalPages = 40})
    {
        if (with_dedup)
            ftl.attachDedup(&store);
        if (with_dvp) {
            MqDvpConfig cfg;
            cfg.capacity = 64;
            pool = std::make_unique<MqDvp>(cfg);
            ftl.attachDvp(pool.get());
        }
    }

    HostOpResult
    write(Lpn lpn, const Fingerprint &f)
    {
        return ftl.write(lpn, f, steps);
    }

    HostOpResult
    read(Lpn lpn)
    {
        return ftl.read(lpn, steps);
    }

    HostOpResult
    trim(Lpn lpn)
    {
        return ftl.trim(lpn, steps);
    }

    FlashArray flash;
    FingerprintStore store;
    Ftl ftl;
    FlashStepBuffer steps;
    std::unique_ptr<MqDvp> pool;
};

TEST(Trim, UnmapsAndInvalidates)
{
    TrimRig rig(false);
    rig.write(3, fp(1));
    const Ppn ppn = rig.ftl.mapping().ppnOf(3);
    const HostOpResult r = rig.trim(3);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(rig.ftl.mapping().isMapped(3));
    EXPECT_EQ(rig.flash.state(ppn), PageState::Invalid);
    EXPECT_EQ(rig.ftl.stats().trims, 1u);
    rig.ftl.checkConsistency();
}

TEST(Trim, UnmappedLpnIsGracefulNoOp)
{
    TrimRig rig(false);
    const HostOpResult r = rig.trim(5);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(rig.ftl.stats().trims, 1u);
}

TEST(Trim, OutOfRangeLpnIsGracefulNoOp)
{
    TrimRig rig(false);
    EXPECT_FALSE(rig.trim(40).ok);
}

TEST(Trim, TrimmedContentEntersDeadValuePool)
{
    TrimRig rig(true);
    rig.write(3, fp(7));
    const Ppn ppn = rig.ftl.mapping().ppnOf(3);
    rig.trim(3);

    // Writing the same content elsewhere revives the trimmed page.
    const HostOpResult r = rig.write(9, fp(7));
    EXPECT_TRUE(r.dvpRevival);
    EXPECT_EQ(rig.ftl.mapping().ppnOf(9), ppn);
    EXPECT_EQ(rig.flash.state(ppn), PageState::Valid);
    rig.ftl.checkConsistency();
}

TEST(Trim, ReadAfterTrimFails)
{
    TrimRig rig(false);
    rig.write(3, fp(1));
    rig.trim(3);
    EXPECT_FALSE(rig.read(3).ok);
}

TEST(Trim, SharedDedupPageSurvivesSingleTrim)
{
    TrimRig rig(false, true);
    rig.write(0, fp(7));
    rig.write(1, fp(7));
    const Ppn shared = rig.ftl.mapping().ppnOf(0);
    rig.trim(0);
    EXPECT_EQ(rig.flash.state(shared), PageState::Valid);
    EXPECT_EQ(rig.store.refCount(fp(7)), 1u);
    EXPECT_TRUE(rig.ftl.mapping().isMapped(1));
    rig.trim(1);
    EXPECT_EQ(rig.flash.state(shared), PageState::Invalid);
    rig.ftl.checkConsistency();
}

TEST(Trim, PopularityByteResets)
{
    TrimRig rig(true);
    rig.write(3, fp(1));
    rig.write(3, fp(1)); // revival bumps popularity to 2
    ASSERT_GT(rig.ftl.mapping().popularity(3), 1);
    rig.trim(3);
    EXPECT_EQ(rig.ftl.mapping().popularity(3), 0);
}

TEST(Trim, RepeatedTrimWriteCyclesStayConsistent)
{
    // Discard-then-restore cycles (e.g. a file deleted and restored
    // from a snapshot): the rewrite arrives while the trimmed pages
    // are still in the pool and revives them.
    TrimRig rig(true);
    for (int cycle = 0; cycle < 50; ++cycle) {
        for (Lpn l = 0; l < 10; ++l)
            rig.write(l, fp(l));
        for (Lpn l = 0; l < 10; l += 2)
            rig.trim(l);
        for (Lpn l = 0; l < 10; l += 2)
            rig.write(l, fp(l)); // restore the same content
    }
    rig.ftl.checkConsistency();
    EXPECT_GT(rig.ftl.stats().dvpRevivals, 100u);
}

} // namespace
} // namespace zombie

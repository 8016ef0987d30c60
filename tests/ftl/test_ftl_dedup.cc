/**
 * @file
 * Tests for the deduplicated FTL configurations (Dedup / DVP+Dedup),
 * covering the paper's section VII semantics: many-to-one mapping,
 * garbage only at last-reference drop, and the combined system.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "dvp/mq_dvp.hh"
#include "ftl/ftl.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

Fingerprint
fp(std::uint64_t id)
{
    return Fingerprint::fromValueId(id);
}

struct DedupRig
{
    explicit DedupRig(bool with_dvp)
        : flash(Geometry(1, 1, 1, 1, 8, 8)),
          ftl(flash, FtlConfig{.logicalPages = 40,
                               .gcSoftWater = 3,
                               .gcLowWater = 2,
                               .gcPagesPerStep = 8,
                               .gcPolicy = "greedy",
                               .gcPopWeight = 1.0,
                               .gcMinInvalid = 2})
    {
        ftl.attachDedup(&store);
        if (with_dvp) {
            MqDvpConfig cfg;
            cfg.capacity = 64;
            cfg.numQueues = 4;
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

TEST(FtlDedup, DuplicateContentSharesOnePhysicalPage)
{
    DedupRig rig(false);
    rig.write(0, fp(7));
    const HostOpResult r = rig.write(1, fp(7));
    EXPECT_TRUE(r.shortCircuit);
    EXPECT_TRUE(r.dedupHit);
    EXPECT_TRUE(rig.steps.userSteps.empty());
    EXPECT_EQ(rig.ftl.mapping().ppnOf(0), rig.ftl.mapping().ppnOf(1));
    EXPECT_EQ(rig.flash.counters().programs, 1u);
    EXPECT_EQ(rig.store.refCount(fp(7)), 2u);
}

TEST(FtlDedup, OwnersListTracksAllSharers)
{
    DedupRig rig(false);
    rig.write(0, fp(7));
    rig.write(1, fp(7));
    rig.write(2, fp(7));
    const auto owners = rig.ftl.ownersOf(rig.ftl.mapping().ppnOf(0));
    EXPECT_EQ(owners.size(), 3u);
}

TEST(FtlDedup, SameContentSameLpnIsPureNoOp)
{
    DedupRig rig(false);
    rig.write(0, fp(7));
    const Ppn ppn = rig.ftl.mapping().ppnOf(0);
    const HostOpResult r = rig.write(0, fp(7));
    EXPECT_TRUE(r.dedupHit);
    EXPECT_EQ(rig.ftl.mapping().ppnOf(0), ppn);
    EXPECT_EQ(rig.store.refCount(fp(7)), 1u);
    EXPECT_EQ(rig.flash.counters().invalidations, 0u);
}

TEST(FtlDedup, PageBecomesGarbageOnlyAtLastReference)
{
    DedupRig rig(false);
    rig.write(0, fp(7));
    rig.write(1, fp(7));
    const Ppn shared = rig.ftl.mapping().ppnOf(0);

    rig.write(0, fp(8)); // drop one reference
    EXPECT_EQ(rig.flash.state(shared), PageState::Valid);
    EXPECT_EQ(rig.store.refCount(fp(7)), 1u);

    rig.write(1, fp(9)); // drop the last reference
    EXPECT_EQ(rig.flash.state(shared), PageState::Invalid);
    EXPECT_EQ(rig.store.refCount(fp(7)), 0u);
}

TEST(FtlDedup, ReverseMapSurvivesPrimaryOwnerDeath)
{
    DedupRig rig(false);
    rig.write(0, fp(7));
    rig.write(1, fp(7));
    const Ppn shared = rig.ftl.mapping().ppnOf(0);
    rig.write(0, fp(8)); // primary owner leaves
    EXPECT_EQ(rig.ftl.mapping().lpnOf(shared), 1u);
    rig.ftl.checkConsistency();
}

TEST(FtlDedup, DvpRevivesDeadDuplicateContent)
{
    // Section VII / Figure 13: after the last reference drops, dedup
    // alone would program the content again; the combined system
    // revives the garbage page instead.
    DedupRig dedup_only(false), combined(true);

    for (DedupRig *rig : {&dedup_only, &combined}) {
        rig->write(0, fp(7));
        rig->write(0, fp(8)); // content 7 now garbage
    }

    const HostOpResult r1 = dedup_only.write(1, fp(7));
    EXPECT_FALSE(r1.shortCircuit); // dedup alone must program

    const HostOpResult r2 = combined.write(1, fp(7));
    EXPECT_TRUE(r2.shortCircuit);
    EXPECT_TRUE(r2.dvpRevival);
    combined.ftl.checkConsistency();
}

TEST(FtlDedup, RevivedPageRejoinsFingerprintStore)
{
    DedupRig rig(true);
    rig.write(0, fp(7));
    rig.write(0, fp(8));           // 7 dies
    rig.write(1, fp(7));           // revived
    const HostOpResult r = rig.write(2, fp(7)); // dedup again!
    EXPECT_TRUE(r.dedupHit);
    EXPECT_EQ(rig.ftl.mapping().ppnOf(1), rig.ftl.mapping().ppnOf(2));
}

TEST(FtlDedup, GcRelocatesSharedPagesUpdatingAllOwners)
{
    DedupRig rig(false);
    rig.write(0, fp(100));
    rig.write(1, fp(100));
    rig.write(2, fp(100));

    // Force GC by updating a window of other LPNs until erases occur.
    Xoshiro256 rng(11);
    for (int i = 0; i < 800; ++i)
        rig.write(3 + rng.nextBounded(37), fp(1000 + i));
    ASSERT_GT(rig.flash.counters().erases, 0u);

    // The shared content must still be intact and consistent.
    const Ppn shared = rig.ftl.mapping().ppnOf(0);
    EXPECT_EQ(rig.ftl.mapping().ppnOf(1), shared);
    EXPECT_EQ(rig.ftl.mapping().ppnOf(2), shared);
    EXPECT_EQ(rig.store.refCount(fp(100)), 3u);
    EXPECT_EQ(*rig.store.lookup(fp(100)), shared);
    EXPECT_EQ(rig.flash.state(shared), PageState::Valid);
    rig.ftl.checkConsistency();
}

TEST(FtlDedup, DedupReducesProgramsOnRedundantStream)
{
    DedupRig rig(false);
    Xoshiro256 rng(12);
    for (int i = 0; i < 500; ++i)
        rig.write(rng.nextBounded(40), fp(rng.nextBounded(6)));
    // Only a handful of distinct values exist; programs must be a
    // small fraction of writes.
    EXPECT_LT(rig.ftl.stats().programs, 50u);
    EXPECT_GT(rig.ftl.stats().dedupHits, 400u);
    rig.ftl.checkConsistency();
}

TEST(FtlDedup, CombinedSystemBeatsDedupAlone)
{
    // Redundant content cycling through life and death: DVP+Dedup
    // must program strictly less than Dedup alone (paper Figure 14).
    DedupRig dedup_only(false), combined(true);
    Xoshiro256 rng_a(13), rng_b(13);
    for (int i = 0; i < 1500; ++i) {
        const Lpn la = rng_a.nextBounded(40);
        const std::uint64_t va = rng_a.nextBounded(40);
        dedup_only.write(la, fp(va));
        const Lpn lb = rng_b.nextBounded(40);
        const std::uint64_t vb = rng_b.nextBounded(40);
        combined.write(lb, fp(vb));
    }
    EXPECT_LT(combined.ftl.stats().programs,
              dedup_only.ftl.stats().programs);
    EXPECT_GT(combined.ftl.stats().dvpRevivals, 0u);
    dedup_only.ftl.checkConsistency();
    combined.ftl.checkConsistency();
}

TEST(FtlDedup, MixedReadsAndWritesStayConsistent)
{
    DedupRig rig(true);
    Xoshiro256 rng(14);
    for (int i = 0; i < 3000; ++i) {
        const Lpn lpn = rng.nextBounded(40);
        if (rng.nextBool(0.6))
            rig.write(lpn, fp(rng.nextBounded(25)));
        else
            rig.read(lpn);
        if (i % 500 == 0)
            rig.ftl.checkConsistency();
    }
    rig.ftl.checkConsistency();
}

/**
 * Seeded random writes from a 16-value content alphabet, plus trims
 * and reads, on a drive small enough that GC keeps relocating shared
 * pages. At every checkpoint the FTL's audit must pass and each
 * page's owner chain must equal, as a set, a brute-force scan of the
 * mapping table. The pool revives every dead alphabet value, so the
 * DVP variant mixes in fresh content to keep programs, and hence GC,
 * going.
 */
TEST(FtlDedup, RandomOwnerChainsMatchMappingScan)
{
    for (const bool with_dvp : {false, true}) {
        SCOPED_TRACE(with_dvp ? "dvp+dedup" : "dedup");
        DedupRig rig(with_dvp);
        const MappingTable &map = rig.ftl.mapping();
        const Lpn lpns = map.logicalPages();
        const Ppn pages = rig.flash.geometry().totalPages();
        Xoshiro256 rng(with_dvp ? 31 : 30);
        const double fresh = with_dvp ? 0.25 : 0.0;

        std::vector<Ppn> before(lpns);
        std::uint64_t shared_moves = 0;
        for (int i = 0; i < 20000; ++i) {
            for (Lpn l = 0; l < lpns; ++l)
                before[l] = map.ppnOf(l);
            const Lpn lpn = rng.nextBounded(lpns);
            const double op = rng.nextDouble();
            if (op < 0.6)
                rig.write(lpn, rng.nextBool(fresh)
                                   ? fp(1000 + i)
                                   : fp(rng.nextBounded(16)));
            else if (op < 0.75)
                rig.trim(lpn);
            else
                rig.read(lpn);

            // Only relocation moves an LPN the op did not name.
            for (Lpn l = 0; l < lpns; ++l) {
                if (l == lpn || before[l] == map.ppnOf(l))
                    continue;
                for (Lpn o = 0; o < lpns; ++o) {
                    if (o != l && before[o] == before[l]) {
                        ++shared_moves;
                        break;
                    }
                }
            }

            if (i % 97 != 0)
                continue;
            rig.ftl.checkConsistency();
            for (Ppn ppn = 0; ppn < pages; ++ppn) {
                std::set<Lpn> scanned;
                for (Lpn l = 0; l < lpns; ++l) {
                    if (map.isMapped(l) && map.ppnOf(l) == ppn)
                        scanned.insert(l);
                }
                const std::vector<Lpn> chain = rig.ftl.ownersOf(ppn);
                ASSERT_EQ(chain.size(), scanned.size())
                    << "PPN " << ppn << " at op " << i;
                EXPECT_EQ(std::set<Lpn>(chain.begin(), chain.end()),
                          scanned)
                    << "PPN " << ppn << " at op " << i;
            }
        }
        rig.ftl.checkConsistency();
        EXPECT_GT(rig.ftl.stats().trims, 0u);
        EXPECT_GT(rig.ftl.stats().dedupHits, 0u);
        EXPECT_GT(shared_moves, 0u);
        if (with_dvp)
            EXPECT_GT(rig.ftl.stats().dvpRevivals, 0u);
    }
}

} // namespace
} // namespace zombie

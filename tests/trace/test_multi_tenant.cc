/**
 * @file
 * Tests for the multi-tenant trace frontend: profile splitting, the
 * deterministic k-way merge, namespace/value-id disjointness, and
 * the single-tenant identity guarantee.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/generator.hh"
#include "trace/multi_tenant.hh"
#include "util/thread_pool.hh"

namespace zombie
{
namespace
{

WorkloadProfile
baseProfile(std::uint64_t requests = 2000, std::uint64_t seed = 7)
{
    return WorkloadProfile::preset(Workload::Mail, 1, requests, seed);
}

TEST(SplitProfile, PreservesTotalRequests)
{
    const auto profiles = splitProfileAcrossTenants(baseProfile(), 3);
    ASSERT_EQ(profiles.size(), 3u);
    std::uint64_t total = 0;
    for (const auto &p : profiles)
        total += p.requests;
    EXPECT_EQ(total, 2000u);
}

TEST(SplitProfile, RemainderGoesToEarlierTenants)
{
    const auto profiles =
        splitProfileAcrossTenants(baseProfile(1001), 3);
    EXPECT_EQ(profiles[0].requests, 334u);
    EXPECT_EQ(profiles[1].requests, 334u);
    EXPECT_EQ(profiles[2].requests, 333u);
}

TEST(SplitProfile, SeedsAreDecorrelatedAndTenantZeroKeepsBase)
{
    const auto profiles = splitProfileAcrossTenants(baseProfile(), 4);
    EXPECT_EQ(profiles[0].seed, baseProfile().seed);
    for (std::size_t a = 0; a < profiles.size(); ++a)
        for (std::size_t b = a + 1; b < profiles.size(); ++b)
            EXPECT_NE(profiles[a].seed, profiles[b].seed);
}

TEST(SplitProfile, RejectsBadTenantCounts)
{
    EXPECT_EXIT((void)splitProfileAcrossTenants(baseProfile(), 0),
                testing::ExitedWithCode(1), "tenant count");
    EXPECT_EXIT(
        (void)splitProfileAcrossTenants(baseProfile(), kMaxTenants + 1),
        testing::ExitedWithCode(1), "tenant count");
}

TEST(MultiTenantGenerator, SingleTenantIsIdentity)
{
    // One profile must reproduce the plain generator's stream
    // byte-for-byte: tenant 0, base 0, no value-id salt.
    const WorkloadProfile p = baseProfile();
    auto expected = SyntheticTraceGenerator(p).generateAll();
    auto merged = MultiTenantTraceGenerator({p}).generateAll();
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].arrival, expected[i].arrival);
        EXPECT_EQ(merged[i].op, expected[i].op);
        EXPECT_EQ(merged[i].lpn, expected[i].lpn);
        EXPECT_EQ(merged[i].valueId, expected[i].valueId);
        EXPECT_EQ(merged[i].fp, expected[i].fp);
        EXPECT_EQ(merged[i].tenant, 0u);
    }
}

TEST(MultiTenantGenerator, MergeIsOrderedWithLowTenantTieBreak)
{
    MultiTenantTraceGenerator gen(
        splitProfileAcrossTenants(baseProfile(3000), 3));
    const auto records = gen.generateAll();
    ASSERT_EQ(records.size(), 3000u);
    for (std::size_t i = 1; i < records.size(); ++i) {
        ASSERT_LE(records[i - 1].arrival, records[i].arrival);
        if (records[i - 1].arrival == records[i].arrival) {
            // Equal arrivals must emit in ascending tenant order.
            ASSERT_LE(records[i - 1].tenant, records[i].tenant);
        }
    }
}

TEST(MultiTenantGenerator, NamespacesAndValueIdsAreDisjoint)
{
    MultiTenantTraceGenerator gen(
        splitProfileAcrossTenants(baseProfile(3000), 3));
    const auto records = gen.generateAll();
    std::vector<std::set<std::uint64_t>> ids(3);
    for (const auto &rec : records) {
        const std::uint32_t t = rec.tenant;
        const Lpn base = gen.namespaceBase(t);
        ASSERT_GE(rec.lpn, base);
        ASSERT_LT(rec.lpn, base + gen.namespacePages(t));
        if (rec.valueId != TraceRecord::kNoValueId)
            ids[t].insert(rec.valueId);
    }
    // No value id may appear under two tenants: cross-tenant dedup
    // would otherwise couple the namespaces through content.
    for (std::size_t a = 0; a < ids.size(); ++a) {
        for (std::size_t b = a + 1; b < ids.size(); ++b) {
            for (const std::uint64_t id : ids[a])
                ASSERT_EQ(ids[b].count(id), 0u);
        }
    }
}

TEST(MultiTenantGenerator, SaltedFingerprintsMatchSaltedIds)
{
    // Content engines key on the fingerprint: it must be recomputed
    // from the salted id, not carried over from the unsalted one.
    const auto profiles =
        splitProfileAcrossTenants(baseProfile(1000), 2);
    MultiTenantTraceGenerator gen(profiles);
    TraceRecord rec;
    while (gen.next(rec)) {
        if (rec.tenant == 1 &&
            rec.valueId != TraceRecord::kNoValueId)
            ASSERT_EQ(rec.fp, Fingerprint::fromValueId(rec.valueId));
    }
}

TEST(MultiTenantGenerator, StreamMatchesGenerateAll)
{
    const auto profiles =
        splitProfileAcrossTenants(baseProfile(1500), 3);
    auto all = MultiTenantTraceGenerator(profiles).generateAll();
    MultiTenantTraceGenerator streaming(profiles);
    TraceRecord rec;
    std::size_t i = 0;
    while (streaming.next(rec)) {
        ASSERT_LT(i, all.size());
        EXPECT_EQ(rec.arrival, all[i].arrival);
        EXPECT_EQ(rec.tenant, all[i].tenant);
        EXPECT_EQ(rec.lpn, all[i].lpn);
        EXPECT_EQ(rec.valueId, all[i].valueId);
        ++i;
    }
    EXPECT_EQ(i, all.size());
}

TEST(MultiTenantGenerator, DeterministicAcrossConcurrentBuilds)
{
    // Concurrent regeneration (the bench harness pattern) must yield
    // byte-identical streams: the merge is a pure function of the
    // profiles with no shared or global state.
    const auto profiles =
        splitProfileAcrossTenants(baseProfile(2000), 4);
    auto streams = parallelMap(4, 4, [&profiles](std::size_t) {
        return MultiTenantTraceGenerator(profiles).generateAll();
    });
    for (std::size_t j = 1; j < streams.size(); ++j) {
        ASSERT_EQ(streams[j].size(), streams[0].size());
        for (std::size_t i = 0; i < streams[0].size(); ++i) {
            ASSERT_EQ(streams[j][i].arrival, streams[0][i].arrival);
            ASSERT_EQ(streams[j][i].tenant, streams[0][i].tenant);
            ASSERT_EQ(streams[j][i].lpn, streams[0][i].lpn);
            ASSERT_EQ(streams[j][i].valueId, streams[0][i].valueId);
            ASSERT_EQ(streams[j][i].fp, streams[0][i].fp);
        }
    }
}

TEST(MultiTenantGenerator, TotalLpnSpaceIsSumOfNamespaces)
{
    MultiTenantTraceGenerator gen(
        splitProfileAcrossTenants(baseProfile(), 3));
    std::uint64_t sum = 0;
    for (std::uint32_t t = 0; t < gen.tenants(); ++t)
        sum += gen.namespacePages(t);
    EXPECT_EQ(gen.totalLpnSpace(), sum);
    EXPECT_EQ(gen.allNamespacePages().size(), 3u);
}

TEST(MultiTenantGeneratorDeath, RejectsEmptyProfileList)
{
    EXPECT_EXIT((void)MultiTenantTraceGenerator({}),
                testing::ExitedWithCode(1), "multi-tenant");
}

} // namespace
} // namespace zombie

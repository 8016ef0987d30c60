/**
 * @file
 * Tests for the multi-tenant frontend at the sim layer: the queue
 * arbiter, the --arbiter spec parser, multi-tenant config
 * validation, per-tenant telemetry accounting, and the partitioned
 * dead-value pool wiring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/arbiter.hh"
#include "sim/experiment.hh"
#include "sim/ssd.hh"
#include "trace/multi_tenant.hh"

namespace zombie
{
namespace
{

/** pick() n times with everything eligible. */
std::vector<std::uint32_t>
pickAll(QueueArbiter &arb, std::size_t n)
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(arb.pick([](std::uint32_t) { return true; }));
    return out;
}

TEST(QueueArbiter, RoundRobinCyclesStrictTurns)
{
    QueueArbiter arb(ArbiterKind::RoundRobin, 3, {});
    EXPECT_EQ(pickAll(arb, 6),
              (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

TEST(QueueArbiter, WeightedServesWeightCommandsPerTurn)
{
    QueueArbiter arb(ArbiterKind::WeightedRoundRobin, 2, {2, 1});
    EXPECT_EQ(pickAll(arb, 6),
              (std::vector<std::uint32_t>{0, 0, 1, 0, 0, 1}));
}

TEST(QueueArbiter, SkipsIneligibleTenants)
{
    QueueArbiter arb(ArbiterKind::RoundRobin, 3, {});
    const auto only2 = [](std::uint32_t t) { return t == 2; };
    EXPECT_EQ(arb.pick(only2), 2u);
    EXPECT_EQ(arb.pick(only2), 2u);
}

TEST(QueueArbiter, SkipForfeitsTheRestOfTheTurn)
{
    QueueArbiter arb(ArbiterKind::WeightedRoundRobin, 2, {3, 1});
    // Tenant 0 takes one of its three credits, then goes idle: the
    // skip hands the turn to tenant 1 immediately (work-conserving),
    // and tenant 0's next turn starts with fresh credit.
    EXPECT_EQ(arb.pick([](std::uint32_t t) { return t == 0; }), 0u);
    EXPECT_EQ(arb.pick([](std::uint32_t t) { return t == 1; }), 1u);
    EXPECT_EQ(pickAll(arb, 4),
              (std::vector<std::uint32_t>{0, 0, 0, 1}));
}

TEST(QueueArbiter, ReturnsNoneWhenNothingEligible)
{
    QueueArbiter arb(ArbiterKind::RoundRobin, 2, {});
    EXPECT_EQ(arb.pick([](std::uint32_t) { return false; }),
              QueueArbiter::kNone);
    // The failed scan must not strand state: next pick still works.
    EXPECT_EQ(arb.pick([](std::uint32_t) { return true; }), 0u);
}

TEST(QueueArbiter, SingleTenantAlwaysPicksZero)
{
    // Regression: with one tenant the exhausted-credit wrap must
    // land back on tenant 0 with fresh credit, never kNone.
    QueueArbiter arb(ArbiterKind::WeightedRoundRobin, 1, {2});
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(arb.pick([](std::uint32_t) { return true; }), 0u);
}

TEST(QueueArbiter, EmptyWeightsMeanEqualTurns)
{
    QueueArbiter arb(ArbiterKind::WeightedRoundRobin, 2, {});
    EXPECT_EQ(pickAll(arb, 4),
              (std::vector<std::uint32_t>{0, 1, 0, 1}));
}

TEST(ArbiterSpec, ParsesRoundRobin)
{
    const ArbiterSpec spec = parseArbiterSpec("rr");
    EXPECT_EQ(spec.kind, ArbiterKind::RoundRobin);
    EXPECT_TRUE(spec.weights.empty());
}

TEST(ArbiterSpec, ParsesWeightedWithWeights)
{
    const ArbiterSpec spec = parseArbiterSpec("wrr:3,1");
    EXPECT_EQ(spec.kind, ArbiterKind::WeightedRoundRobin);
    EXPECT_EQ(spec.weights,
              (std::vector<std::uint32_t>{3, 1}));
}

TEST(ArbiterSpec, BareWrrMeansEqualWeights)
{
    const ArbiterSpec spec = parseArbiterSpec("wrr");
    EXPECT_EQ(spec.kind, ArbiterKind::WeightedRoundRobin);
    EXPECT_TRUE(spec.weights.empty());
}

TEST(ArbiterSpecDeath, RejectsMalformedSpecs)
{
    EXPECT_EXIT((void)parseArbiterSpec("bogus"),
                testing::ExitedWithCode(1), "unknown arbiter");
    EXPECT_EXIT((void)parseArbiterSpec("rr:1,1"),
                testing::ExitedWithCode(1), "only wrr takes weights");
    EXPECT_EXIT((void)parseArbiterSpec("wrr:0,1"),
                testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT((void)parseArbiterSpec("wrr:3,x"),
                testing::ExitedWithCode(1), "positive integers");
    EXPECT_EXIT((void)parseArbiterSpec("wrr:"),
                testing::ExitedWithCode(1), "positive integers");
}

TEST(ArbiterDeath, ConstructorValidates)
{
    EXPECT_EXIT(QueueArbiter(ArbiterKind::RoundRobin, 0, {}),
                testing::ExitedWithCode(1), "at least one tenant");
    EXPECT_EXIT(
        QueueArbiter(ArbiterKind::WeightedRoundRobin, 3, {1, 2}),
        testing::ExitedWithCode(1), "weights for");
    EXPECT_EXIT(
        QueueArbiter(ArbiterKind::WeightedRoundRobin, 2, {1, 0}),
        testing::ExitedWithCode(1), "must be positive");
}

TEST(MultiTenantConfigDeath, ValidatesTenantFields)
{
    SsdConfig cfg = SsdConfig::forFootprint(20'000, SystemKind::MqDvp);
    cfg.tenants = kMaxTenants + 1;
    EXPECT_EXIT(Ssd{cfg}, testing::ExitedWithCode(1), "tenants");

    cfg = SsdConfig::forFootprint(20'000, SystemKind::MqDvp);
    cfg.tenants = 2;
    cfg.arbiterWeights = {1, 2, 3};
    EXPECT_EXIT(Ssd{cfg}, testing::ExitedWithCode(1),
                "arbiter weights");

    cfg = SsdConfig::forFootprint(20'000, SystemKind::MqDvp);
    cfg.tenants = 2;
    // Multi-tenant runs need one namespace size per tenant.
    EXPECT_EXIT(Ssd{cfg}, testing::ExitedWithCode(1), "namespace");
}

/** Two-tenant Mail cell, small enough for a unit test. */
SimResult
runTenantCell(const std::string &arbiter, const std::string &scope,
              std::uint32_t tenants, std::uint32_t depth)
{
    ExperimentOptions opts;
    opts.requests = 20'000;
    opts.seed = 99;
    opts.poolCapacity = 2'000;
    opts.queueDepth = depth;
    opts.tenants = tenants;
    opts.arbiter = arbiter;
    opts.dvpScope = scope;
    return runSystem(Workload::Mail, SystemKind::MqDvp, opts);
}

TEST(TenantAccounting, PerTenantSumsEqualDriveWide)
{
    const SimResult r = runTenantCell("rr", "shared", 2, 4);
    ASSERT_EQ(r.tenants, 2u);
    ASSERT_EQ(r.tenantResults.size(), 2u);

    std::uint64_t reads = 0, writes = 0, submitted = 0, blocked = 0;
    std::uint64_t latencies = 0;
    Tick wait = 0;
    for (const TenantResult &ts : r.tenantResults) {
        reads += ts.reads;
        writes += ts.writes;
        submitted += ts.submitted;
        blocked += ts.blockedAdmissions;
        wait += ts.admissionWait;
        latencies +=
            ts.readLatency.count() + ts.writeLatency.count();
    }
    EXPECT_EQ(reads, r.reads);
    EXPECT_EQ(writes, r.writes);
    EXPECT_EQ(submitted, r.hostQueue.submitted);
    EXPECT_EQ(blocked, r.hostQueue.blockedAdmissions);
    EXPECT_EQ(wait, r.hostQueue.admissionWait);
    EXPECT_EQ(latencies,
              r.readLatency.count() + r.writeLatency.count());
}

TEST(TenantAccounting, WrrShiftsBlockingToLowWeightTenant)
{
    const SimResult r = runTenantCell("wrr:3,1", "shared", 2, 8);
    ASSERT_EQ(r.tenantResults.size(), 2u);
    // Equal offered load, 3:1 tag budgets: the weight-1 tenant must
    // absorb the admission blocking the weight-3 tenant is spared.
    EXPECT_GT(r.tenantResults[1].blockedAdmissions,
              r.tenantResults[0].blockedAdmissions);
    EXPECT_GT(r.tenantResults[1].admissionWait,
              r.tenantResults[0].admissionWait);
}

TEST(TenantAccounting, DriveWideTotalsInvariantAcrossArbiters)
{
    // Arbitration reorders service, it must not change what work
    // the drive performs: totals are a function of the trace alone.
    const SimResult rr = runTenantCell("rr", "shared", 2, 8);
    const SimResult wrr = runTenantCell("wrr:3,1", "shared", 2, 8);
    EXPECT_EQ(rr.requests, wrr.requests);
    EXPECT_EQ(rr.reads, wrr.reads);
    EXPECT_EQ(rr.writes, wrr.writes);
}

TEST(TenantAccounting, SingleTenantMatchesDefaultOptions)
{
    // tenants=1 with explicit arbiter/scope flags must take the
    // legacy single-stream path: identical results, no tenant slices.
    ExperimentOptions defaults;
    defaults.requests = 20'000;
    defaults.seed = 99;
    defaults.poolCapacity = 2'000;
    defaults.queueDepth = 4;
    const SimResult base =
        runSystem(Workload::Mail, SystemKind::MqDvp, defaults);
    const SimResult flagged = runTenantCell("wrr", "partitioned", 1, 4);

    EXPECT_TRUE(flagged.tenantResults.empty());
    EXPECT_EQ(flagged.makespan, base.makespan);
    EXPECT_EQ(flagged.flashPrograms, base.flashPrograms);
    EXPECT_EQ(flagged.flashReads, base.flashReads);
    EXPECT_EQ(flagged.flashErases, base.flashErases);
    EXPECT_EQ(flagged.dvpRevivals, base.dvpRevivals);
    EXPECT_EQ(flagged.hostQueue.blockedAdmissions,
              base.hostQueue.blockedAdmissions);
    EXPECT_EQ(flagged.hostQueue.admissionWait,
              base.hostQueue.admissionWait);
}

TEST(TenantAccounting, TenantStatPathsOnlyWhenMultiTenant)
{
    const WorkloadProfile p =
        WorkloadProfile::preset(Workload::Mail, 1, 5'000, 11);

    SsdConfig single =
        SsdConfig::forFootprint(p.totalLpnSpace(), SystemKind::MqDvp);
    single.mq.capacity = 1'000;
    Ssd one(single);
    VectorSource one_src(SyntheticTraceGenerator(p).generateAll());
    one.run(one_src);
    (void)one.result();
    EXPECT_FALSE(one.statRegistry().has("tenant.0.submitted"));

    MultiTenantTraceGenerator gen(splitProfileAcrossTenants(p, 2));
    SsdConfig multi = SsdConfig::forFootprint(gen.totalLpnSpace(),
                                              SystemKind::MqDvp);
    multi.mq.capacity = 1'000;
    multi.tenants = 2;
    multi.queueDepth = 4;
    multi.namespacePages = gen.allNamespacePages();
    Ssd two(multi);
    VectorSource two_src(gen.generateAll());
    two.run(two_src);
    const SimResult r = two.result();
    const StatRegistry &reg = two.statRegistry();
    for (const char *path :
         {"tenant.0.submitted", "tenant.1.submitted",
          "tenant.0.blocked_admissions", "tenant.1.reads",
          "tenant.1.writes", "tenant.0.gc_collateral_ticks"}) {
        EXPECT_TRUE(reg.has(path)) << path;
    }
    EXPECT_EQ(reg.value("tenant.0.reads") + reg.value("tenant.1.reads"),
              static_cast<double>(r.reads));
    EXPECT_EQ(reg.value("tenant.0.writes") +
                  reg.value("tenant.1.writes"),
              static_cast<double>(r.writes));
}

TEST(TenantAccounting, PartitionedDvpAggregatesPerTenantPools)
{
    const WorkloadProfile p =
        WorkloadProfile::preset(Workload::Mail, 1, 10'000, 23);
    MultiTenantTraceGenerator gen(splitProfileAcrossTenants(p, 2));
    SsdConfig cfg = SsdConfig::forFootprint(gen.totalLpnSpace(),
                                            SystemKind::MqDvp);
    cfg.mq.capacity = 1'000;
    cfg.tenants = 2;
    cfg.queueDepth = 4;
    cfg.dvpScope = DvpScope::Partitioned;
    cfg.namespacePages = gen.allNamespacePages();
    Ssd ssd(cfg);
    VectorSource src(gen.generateAll());
    ssd.run(src);
    const SimResult r = ssd.result();

    const StatRegistry &reg = ssd.statRegistry();
    ASSERT_TRUE(reg.has("dvp.tenant0.hits"));
    ASSERT_TRUE(reg.has("dvp.tenant1.hits"));
    ASSERT_TRUE(reg.has("dvp.partitioned.hits"));
    EXPECT_EQ(reg.value("dvp.tenant0.hits") +
                  reg.value("dvp.tenant1.hits"),
              reg.value("dvp.partitioned.hits"));
    EXPECT_EQ(static_cast<double>(r.dvpStats.hits),
              reg.value("dvp.partitioned.hits"));
    // Both per-tenant pools must actually see traffic.
    EXPECT_GT(reg.value("dvp.tenant0.lookups"), 0.0);
    EXPECT_GT(reg.value("dvp.tenant1.lookups"), 0.0);
}

} // namespace
} // namespace zombie

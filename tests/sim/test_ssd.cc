/**
 * @file
 * End-to-end tests of the simulated SSD (functional + timing layers).
 */

#include <gtest/gtest.h>

#include "sim/ssd.hh"
#include "trace/generator.hh"

namespace zombie
{
namespace
{

WorkloadProfile
mailProfile(std::uint64_t requests = 30000)
{
    return WorkloadProfile::preset(Workload::Mail, 1, requests, 21);
}

SsdConfig
configFor(SystemKind kind, const WorkloadProfile &profile)
{
    SsdConfig cfg = SsdConfig::forProfile(profile, kind);
    cfg.mq.capacity = 50'000;
    return cfg;
}

SimResult
runOn(SystemKind kind, const WorkloadProfile &profile)
{
    Ssd ssd(configFor(kind, profile));
    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    ssd.run(src);
    return ssd.result();
}

TEST(Ssd, PrefillMapsRequestedFraction)
{
    const WorkloadProfile profile = mailProfile(100);
    SsdConfig cfg = configFor(SystemKind::Baseline, profile);
    cfg.prefillFraction = 0.5;
    Ssd ssd(cfg);
    ssd.prefill();
    EXPECT_NEAR(
        static_cast<double>(ssd.ftl().mapping().mappedCount()),
        0.5 * static_cast<double>(cfg.logicalPages), 1.0);
}

TEST(Ssd, MeasurementExcludesPrefillActivity)
{
    const WorkloadProfile profile = mailProfile(100);
    Ssd ssd(configFor(SystemKind::Baseline, profile));
    ssd.prefill();
    const std::uint64_t prefill_programs =
        ssd.flash().counters().programs;
    ASSERT_GT(prefill_programs, 0u);

    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    ssd.run(src);
    const SimResult r = ssd.result();
    EXPECT_LT(r.flashPrograms, prefill_programs);
    EXPECT_LE(r.flashPrograms,
              ssd.flash().counters().programs - prefill_programs);
}

TEST(Ssd, ResultCountsMatchTrace)
{
    const WorkloadProfile profile = mailProfile(5000);
    const SimResult r = runOn(SystemKind::Baseline, profile);
    EXPECT_EQ(r.requests, 5000u);
    EXPECT_EQ(r.reads + r.writes, 5000u);
    EXPECT_EQ(r.readLatency.count(), r.reads);
    EXPECT_EQ(r.writeLatency.count(), r.writes);
    EXPECT_EQ(r.allLatency.count(), r.requests);
    EXPECT_GT(r.makespan, 0u);
}

TEST(Ssd, DeterministicAcrossRuns)
{
    const WorkloadProfile profile = mailProfile(5000);
    const SimResult a = runOn(SystemKind::MqDvp, profile);
    const SimResult b = runOn(SystemKind::MqDvp, profile);
    EXPECT_EQ(a.flashPrograms, b.flashPrograms);
    EXPECT_EQ(a.flashErases, b.flashErases);
    EXPECT_EQ(a.dvpRevivals, b.dvpRevivals);
    EXPECT_DOUBLE_EQ(a.allLatency.mean(), b.allLatency.mean());
    EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Ssd, DvpReducesProgramsVsBaseline)
{
    const WorkloadProfile profile = mailProfile();
    const SimResult base = runOn(SystemKind::Baseline, profile);
    const SimResult dvp = runOn(SystemKind::MqDvp, profile);
    EXPECT_LT(dvp.flashPrograms, base.flashPrograms);
    EXPECT_GT(dvp.dvpRevivals, 0u);
    EXPECT_GT(writeReduction(dvp, base), 0.2);
}

TEST(Ssd, DvpImprovesLatencyOnWriteHeavyTrace)
{
    const WorkloadProfile profile = mailProfile();
    const SimResult base = runOn(SystemKind::Baseline, profile);
    const SimResult dvp = runOn(SystemKind::MqDvp, profile);
    EXPECT_GT(meanLatencyImprovement(dvp, base), 0.0);
    EXPECT_LT(dvp.allLatency.mean(), base.allLatency.mean());
}

TEST(Ssd, IdealAtLeastMatchesBoundedPool)
{
    WorkloadProfile profile = mailProfile();
    SsdConfig small = configFor(SystemKind::MqDvp, profile);
    small.mq.capacity = 2'000; // force evictions
    Ssd bounded(small);
    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    bounded.run(src);

    const SimResult ideal = runOn(SystemKind::Ideal, profile);
    EXPECT_LE(ideal.flashPrograms, bounded.result().flashPrograms);
    EXPECT_GE(ideal.dvpRevivals, bounded.result().dvpRevivals);
}

TEST(Ssd, BaselineHasNoContentEngineStats)
{
    const SimResult r = runOn(SystemKind::Baseline, mailProfile(2000));
    EXPECT_FALSE(r.hasDvp);
    EXPECT_FALSE(r.hasDedup);
    EXPECT_EQ(r.dvpRevivals, 0u);
    EXPECT_EQ(r.dedupHits, 0u);
}

TEST(Ssd, DedupSystemPopulatesDedupStats)
{
    const SimResult r = runOn(SystemKind::Dedup, mailProfile(5000));
    EXPECT_TRUE(r.hasDedup);
    EXPECT_FALSE(r.hasDvp);
    EXPECT_GT(r.dedupHits, 0u);
}

TEST(Ssd, CombinedSystemPopulatesBothStats)
{
    const SimResult r = runOn(SystemKind::DvpDedup, mailProfile(5000));
    EXPECT_TRUE(r.hasDedup);
    EXPECT_TRUE(r.hasDvp);
}

TEST(Ssd, HashEngineLatencyShowsUpInWritePath)
{
    // With identical functional behaviour at tiny load, the DVP
    // system's writes carry the 12us hash latency; compare a write
    // latency floor between baseline and an all-unique trace on DVP.
    WorkloadProfile profile = mailProfile(2000);
    profile.newValueProb = 1.0;  // no redundancy: no revivals
    profile.sameValueProb = 0.0; // not even in-place rewrites
    profile.meanInterarrivalUs = 2000.0; // no queueing

    const SimResult base = runOn(SystemKind::Baseline, profile);
    const SimResult dvp = runOn(SystemKind::MqDvp, profile);
    EXPECT_EQ(dvp.dvpRevivals, 0u);
    const double delta =
        dvp.writeLatency.mean() - base.writeLatency.mean();
    EXPECT_NEAR(delta, 12'000.0, 4'000.0); // ~12us in ns
}

TEST(Ssd, GcRunsDuringMeasuredPhase)
{
    // Long enough for garbage to accumulate past the GC quality gate.
    const SimResult r = runOn(SystemKind::Baseline, mailProfile(120000));
    EXPECT_GT(r.flashErases, 0u);
    EXPECT_GT(r.gcInvocations, 0u);
}

TEST(Ssd, StatSetExportContainsKeyMetrics)
{
    const SimResult r = runOn(SystemKind::MqDvp, mailProfile(2000));
    const StatSet s = r.toStatSet();
    EXPECT_TRUE(s.has("flash.programs"));
    EXPECT_TRUE(s.has("latency.all.p99_us"));
    EXPECT_TRUE(s.has("dvp.hit_rate"));
    EXPECT_TRUE(s.has("reads.unmapped"));
    EXPECT_TRUE(s.has("ctrl.blocked_admissions"));
    EXPECT_TRUE(s.has("ctrl.ooo_completions"));
    EXPECT_TRUE(s.has("nand.max_die_backlog"));
    EXPECT_EQ(s.get("requests"), 2000.0);
    EXPECT_EQ(s.get("ctrl.queue_depth"), 1.0);
    EXPECT_EQ(s.get("reads.unmapped"),
              static_cast<double>(r.unmappedReads));
}

TEST(Ssd, ComparisonHelpersMatchManualMath)
{
    SimResult base, sys;
    base.flashPrograms = 1000;
    sys.flashPrograms = 700;
    base.flashErases = 100;
    sys.flashErases = 80;
    EXPECT_DOUBLE_EQ(writeReduction(sys, base), 0.3);
    EXPECT_DOUBLE_EQ(eraseReduction(sys, base), 0.2);
    EXPECT_DOUBLE_EQ(writeReduction(sys, SimResult{}), 0.0);
}

TEST(SsdDeath, DoublePrefillPanics)
{
    const WorkloadProfile profile = mailProfile(10);
    Ssd ssd(configFor(SystemKind::Baseline, profile));
    ssd.prefill();
    EXPECT_DEATH(ssd.prefill(), "once");
}

} // namespace
} // namespace zombie

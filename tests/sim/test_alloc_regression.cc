/**
 * @file
 * Allocation regression test for the request hot path.
 *
 * The typed-event pipeline promises zero heap allocations in steady
 * state (DESIGN.md section 7.10): every queue, slab, heap and scratch
 * buffer grows to a high-water mark during warm-up and is then only
 * reused. Two full replays of a trace warm every structure; a third,
 * identical replay must leave the process-wide operator-new counter
 * untouched. The depth cells run the Baseline system so the
 * measurement covers the controller, FTL, GC, block manager and
 * resource model rather than pool-internal bookkeeping; the later
 * cells add the dead-value pool and the dedup store.
 *
 * Every cell drives Ssd::process, the admission pump's step, then
 * drains, so the zero covers the pump every program runs: the event
 * heap holds only the in-flight window, and once the warm-up replays
 * have taken it to its high-water mark it never regrows. Each replay
 * starts one tick after the previous one's last completion, the
 * latest tick any command or GC chain of it reached.
 */

#include <gtest/gtest.h>

#include "sim/ssd.hh"
#include "trace/generator.hh"
#include "trace/multi_tenant.hh"
#include "util/alloc_counter.hh"

namespace zombie
{
namespace
{

/** operator-new calls during a third (steady-state) trace replay. */
std::uint64_t
steadyStateAllocs(std::uint32_t queue_depth,
                  SystemKind system = SystemKind::Baseline)
{
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 12'000, 17);
    SsdConfig cfg = SsdConfig::forProfile(profile, system);
    cfg.queueDepth = queue_depth;

    Ssd ssd(cfg);
    ssd.prefill();
    const auto records = SyntheticTraceGenerator(profile).generateAll();
    const Tick first = records.front().arrival;

    // Replay the trace with arrivals shifted past the previous
    // replay's last completion so the request stream (and hence
    // every queue's occupancy profile) repeats identically.
    const auto replay = [&ssd, &records, first]() {
        const Tick base = ssd.pipeline().stats().lastCompletion + 1;
        for (const TraceRecord &rec : records) {
            TraceRecord shifted = rec;
            shifted.arrival = base + (rec.arrival - first);
            ssd.process(shifted);
        }
        ssd.drain();
    };

    replay(); // cold: builds mappings, triggers first GC cycles
    replay(); // warm: every structure reaches its high-water mark
    const std::uint64_t before = heapAllocCount();
    replay(); // steady state: must not touch the allocator
    return heapAllocCount() - before;
}

TEST(AllocRegression, SteadyStateIsAllocationFreeAtDepthOne)
{
    EXPECT_EQ(steadyStateAllocs(1), 0u);
}

TEST(AllocRegression, SteadyStateIsAllocationFreeAtDepthThirtyTwo)
{
    EXPECT_EQ(steadyStateAllocs(32), 0u);
}

/**
 * DVP+Dedup cell: shared pages gain and lose owners, die, revive and
 * move under GC, so the FTL's owner chains and the fingerprint store
 * must follow the same warm-up-then-reuse discipline.
 */
TEST(AllocRegression, SteadyStateIsAllocationFreeWithDedup)
{
    EXPECT_EQ(steadyStateAllocs(8, SystemKind::DvpDedup), 0u);
}

/**
 * DVP-heavy cell: a small MQ pool under high unique-value churn, so
 * capacity evictions, slab slot reuse, ghost-FIFO turnover and
 * flat-map erase/insert cycles all run constantly. The eviction path
 * must be just as allocation-free as the request path.
 */
TEST(AllocRegression, SteadyStateIsAllocationFreeUnderDvpChurn)
{
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 12'000, 17);
    // Nearly every write carries a fresh value: dead pages pour
    // unique fingerprints through the pool instead of refreshing
    // resident entries.
    profile.writeRatio = 0.9;
    profile.newValueProb = 0.95;
    profile.sameValueProb = 0.0;

    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.queueDepth = 8;
    // Shrink the pool far below the dead-value working set so every
    // insert past warm-up evicts.
    cfg.mq.capacity = 1024;

    Ssd ssd(cfg);
    ssd.prefill();
    const auto records = SyntheticTraceGenerator(profile).generateAll();
    const Tick first = records.front().arrival;
    const auto replay = [&ssd, &records, first]() {
        const Tick base = ssd.pipeline().stats().lastCompletion + 1;
        for (const TraceRecord &rec : records) {
            TraceRecord shifted = rec;
            shifted.arrival = base + (rec.arrival - first);
            ssd.process(shifted);
        }
        ssd.drain();
    };

    replay();
    replay();
    const std::uint64_t before = heapAllocCount();
    replay();
    EXPECT_EQ(heapAllocCount() - before, 0u);
}

/**
 * Multi-tenant cell: per-tenant submission queues, the weighted
 * arbiter, tenant stat slices and partitioned pools must all follow
 * the same warm-up-then-reuse discipline with telemetry off.
 */
TEST(AllocRegression, SteadyStateIsAllocationFreeWithTwoTenants)
{
    WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 12'000, 17);
    // Same churn-heavy shape as the DVP cell above, so the
    // per-tenant pools evict constantly rather than idling.
    profile.writeRatio = 0.9;
    profile.newValueProb = 0.95;
    profile.sameValueProb = 0.0;
    MultiTenantTraceGenerator gen(
        splitProfileAcrossTenants(profile, 2));
    SsdConfig cfg = SsdConfig::forFootprint(gen.totalLpnSpace(),
                                            SystemKind::MqDvp);
    cfg.mq.capacity = 1024;
    cfg.queueDepth = 8;
    cfg.tenants = 2;
    cfg.arbiter = ArbiterKind::WeightedRoundRobin;
    cfg.arbiterWeights = {3, 1};
    cfg.dvpScope = DvpScope::Partitioned;
    cfg.namespacePages = gen.allNamespacePages();

    Ssd ssd(cfg);
    ssd.prefill();
    const auto records = gen.generateAll();
    const Tick first = records.front().arrival;
    const auto replay = [&ssd, &records, first]() {
        const Tick base = ssd.pipeline().stats().lastCompletion + 1;
        for (const TraceRecord &rec : records) {
            TraceRecord shifted = rec;
            shifted.arrival = base + (rec.arrival - first);
            ssd.process(shifted);
        }
        ssd.drain();
    };

    // The weight-1 tenant's backlog keeps setting new high-water
    // marks for one replay longer than the single-stream cells, so
    // this cell warms up with three replays instead of two.
    replay();
    replay();
    replay();
    const std::uint64_t before = heapAllocCount();
    replay();
    EXPECT_EQ(heapAllocCount() - before, 0u);
}

} // namespace
} // namespace zombie

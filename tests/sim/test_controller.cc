/**
 * @file
 * Tests for the controller pipeline: queueDepth=1 equivalence with
 * the historical serialized dispatcher, chained-step serialization in
 * the flash scheduler, NCQ admission blocking, out-of-order
 * completion, and the deep-queue throughput/tail shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/ssd.hh"
#include "trace/generator.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

TraceRecord
readAt(Tick arrival, Lpn lpn)
{
    TraceRecord rec;
    rec.arrival = arrival;
    rec.op = OpType::Read;
    rec.lpn = lpn;
    return rec;
}

/**
 * Depth 1 must reproduce the pre-pipeline dispatcher byte-for-byte:
 * one command in the controller at a time, serialized on the FTL
 * overhead. The constants are a recorded run of the serialized
 * implementation (mail, 5000 requests, seed 21, MQ pool of 50000);
 * any drift here is a timing-model regression, not noise.
 */
TEST(Controller, DepthOneMatchesRecordedSerializedRun)
{
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 5000, 21);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.mq.capacity = 50'000;
    ASSERT_EQ(cfg.queueDepth, 1u);

    Ssd ssd(cfg);
    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    ssd.run(src);
    const SimResult r = ssd.result();

    EXPECT_EQ(r.makespan, 147046669u);
    EXPECT_EQ(r.allLatency.percentile(0.99), 425983u);
    EXPECT_DOUBLE_EQ(r.allLatency.mean(), 202510.3376);
    EXPECT_DOUBLE_EQ(r.readLatency.mean(), 97032.772688719255);
    EXPECT_DOUBLE_EQ(r.writeLatency.mean(), 235056.28081654018);
    EXPECT_EQ(r.flashPrograms, 2090u);
    EXPECT_EQ(r.dvpRevivals, 1731u);
}

/**
 * Chained user steps serialize: step N starts at step N-1's
 * completion, not at the command's issue tick (the read-cache-hit
 * timing fix). Exercised directly against the FlashScheduler since
 * today's FTL emits at most one user step.
 */
TEST(FlashScheduler, ChainedStepsSerializeOnPriorCompletion)
{
    const Geometry geom(2, 2, 1, 1, 4, 8);
    const TimingModel t{};
    ResourceModel res(geom, t);
    ReadCache cache(0); // disabled: both reads go to flash

    FlashStepBuffer two_reads;
    two_reads.userSteps = {FlashStep{FlashOp::Read, 0},
                           FlashStep{FlashOp::Read, 0}};

    ResourceModel lone(geom, t);
    FlashStepBuffer one_read;
    one_read.userSteps = {two_reads.userSteps[0]};
    const Tick one =
        FlashScheduler(lone, cache).issue(one_read, 0).completion;
    const Tick both =
        FlashScheduler(res, cache).issue(two_reads, 0).completion;

    // Same page, same die and channel: the second read's command
    // phase cannot begin before the first read completed.
    EXPECT_GE(both, one + t.commandOverhead + t.readLatency);
    EXPECT_EQ(both, 2 * one);
}

/** Cache hits advance the chain too: hit + miss != two hits. */
TEST(FlashScheduler, CacheHitAdvancesTheChain)
{
    const Geometry geom(2, 2, 1, 1, 4, 8);
    const TimingModel t{};
    ResourceModel res(geom, t);
    ReadCache cache(16);
    cache.access(0); // warm: the next read of ppn 0 hits RAM

    FlashStepBuffer hit_then_miss;
    hit_then_miss.userSteps = {FlashStep{FlashOp::Read, 0},
                               FlashStep{FlashOp::Read, 8}};
    const Tick done =
        FlashScheduler(res, cache).issue(hit_then_miss, 100).completion;
    EXPECT_EQ(done, 100 + t.cacheHit + t.commandOverhead +
                        t.readLatency + t.pageTransfer);
}

/**
 * NCQ admission: with one tag, a command arriving while the tag is
 * held waits in the host queue and the wait is accounted.
 */
TEST(Controller, DepthOneBlocksSecondArrival)
{
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 100, 7);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::Baseline);
    cfg.prefillFraction = 0.0;

    Ssd ssd(cfg);
    ssd.process(readAt(0, 0));
    ssd.process(readAt(0, 1)); // same tick: tag is busy
    const SimResult r = ssd.result();

    EXPECT_EQ(r.hostQueue.submitted, 2u);
    EXPECT_EQ(r.hostQueue.blockedAdmissions, 1u);
    EXPECT_EQ(r.hostQueue.admissionWait, cfg.timing.ftlOverhead);
    EXPECT_EQ(r.hostQueue.maxWaiting, 1u);
}

/** With a second tag the same arrivals admit immediately. */
TEST(Controller, DeeperQueueAdmitsTheBurst)
{
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 100, 7);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::Baseline);
    cfg.prefillFraction = 0.0;
    cfg.queueDepth = 2;

    Ssd ssd(cfg);
    ssd.process(readAt(0, 0));
    ssd.process(readAt(0, 1));
    const SimResult r = ssd.result();

    EXPECT_EQ(r.hostQueue.blockedAdmissions, 0u);
    EXPECT_EQ(r.hostQueue.admissionWait, 0u);
}

/** A bursty, high-IOPS profile where the serialized dispatcher is a
 *  genuine bottleneck; used by the deep-queue shape tests below. */
WorkloadProfile
burstyMail(std::uint64_t requests, std::uint64_t seed)
{
    WorkloadProfile p =
        WorkloadProfile::preset(Workload::Mail, 1, requests, seed);
    p.meanInterarrivalUs = 4.0;
    p.burstProb = 0.05;
    p.burstLength = 64;
    p.burstInterarrivalUs = 0.2;
    return p;
}

SimResult
runBurstyMail(std::uint32_t queue_depth)
{
    ExperimentOptions opts;
    opts.requests = 6000;
    opts.seed = 42;
    opts.poolCapacity = 120;
    opts.queueDepth = queue_depth;
    return runSystemOnProfile(burstyMail(opts.requests, opts.seed),
                              SystemKind::MqDvp, opts);
}

/**
 * The NCQ payoff (acceptance shape): at queue depth 32 the drive
 * finishes the trace strictly sooner — bursts no longer serialize on
 * the dispatcher — while p99 does not improve, because the tail is
 * made of requests queued behind GC on a busy die, which deeper host
 * queues only densify.
 */
TEST(Controller, DeepQueueImprovesMakespanNotTail)
{
    const SimResult d1 = runBurstyMail(1);
    const SimResult d32 = runBurstyMail(32);

    EXPECT_LT(d32.makespan, d1.makespan);
    EXPECT_GE(d32.allLatency.percentile(0.99),
              d1.allLatency.percentile(0.99));
    EXPECT_LT(d32.allLatency.mean(), d1.allLatency.mean());

    // Depth 1 pays real admission waits; 32 tags absorb the bursts.
    EXPECT_GT(d1.hostQueue.blockedAdmissions, 0u);
    EXPECT_EQ(d32.hostQueue.blockedAdmissions, 0u);

    // Flash completes out of order across dies at either depth (the
    // single tag only serializes dispatch, not the flash array).
    EXPECT_GT(d1.oooCompletions, 0u);
    EXPECT_GT(d32.oooCompletions, 0u);
}

/** Same seed, same depth: deep-queue runs stay byte-identical. */
TEST(Controller, DeepQueueRunsAreDeterministic)
{
    const SimResult a = runBurstyMail(32);
    const SimResult b = runBurstyMail(32);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.allLatency.percentile(0.99),
              b.allLatency.percentile(0.99));
    EXPECT_DOUBLE_EQ(a.allLatency.mean(), b.allLatency.mean());
    EXPECT_EQ(a.oooCompletions, b.oooCompletions);
    EXPECT_EQ(a.hostQueue.admissionWait, b.hostQueue.admissionWait);
    EXPECT_EQ(a.flashPrograms, b.flashPrograms);
}

/**
 * Per-die completion monotonicity: commands complete out of order
 * only across dies. On a single-die drive with the read cache
 * disabled every flash op serializes through the one die's busy-until
 * schedule, so completions preserve submission order even with many
 * concurrent dispatch contexts.
 */
TEST(Controller, SingleDieCompletesInSubmissionOrder)
{
    SsdConfig cfg;
    cfg.system = SystemKind::Baseline;
    cfg.geom = Geometry(1, 1, 1, 1, 16, 8);
    cfg.logicalPages = 64;
    cfg.readCacheEntries = 0;
    cfg.prefillFraction = 0.0;
    cfg.queueDepth = 8;

    Ssd ssd(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) {
        TraceRecord rec;
        rec.arrival = i * 100; // well inside one program latency
        rec.op = OpType::Write;
        rec.lpn = i;
        rec.fp = Fingerprint::fromValueId(i);
        ssd.process(rec);
    }
    const SimResult r = ssd.result();
    EXPECT_EQ(r.writes, 8u);
    EXPECT_EQ(r.oooCompletions, 0u);
}

/**
 * The completion ring against the min-heap it replaced, on seeded
 * scrambles of the completion order: each command completes a random
 * delay after its submission slot, and a few stragglers complete
 * thousands of slots late. The windows exceed the ring's initial 64
 * bits, so it grows mid-run with set bits to re-lay.
 */
TEST(CompletionRing, MatchesMinHeapReferenceOnScrambledOrders)
{
    constexpr std::uint64_t kCommands = 20'000;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        Xoshiro256 rng(seed);
        const std::uint64_t window = seed % 2 ? 300 : 3000;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> done;
        for (std::uint64_t idx = 0; idx < kCommands; ++idx) {
            std::uint64_t delay = rng() % window;
            if (rng() % 500 == 0)
                delay += 5000 + rng() % 15'000; // straggler
            done.emplace_back(idx + delay, idx);
        }
        std::sort(done.begin(), done.end());

        CompletionRing ring(64);
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            ahead;
        std::uint64_t ref_next = 0;
        std::uint64_t ooo = 0;
        for (const auto &[tick, idx] : done) {
            const bool in_order = idx == ref_next;
            if (in_order) {
                ++ref_next;
                while (!ahead.empty() && ahead.top() == ref_next) {
                    ahead.pop();
                    ++ref_next;
                }
            } else {
                ahead.push(idx);
                ++ooo;
            }
            ASSERT_EQ(ring.complete(idx), in_order)
                << "seed " << seed << " idx " << idx;
            ASSERT_EQ(ring.nextInOrder(), ref_next)
                << "seed " << seed << " idx " << idx;
        }
        EXPECT_EQ(ring.nextInOrder(), kCommands);
        EXPECT_GT(ooo, 0u);
        EXPECT_GT(ring.capacity(), 64u) << "seed " << seed;
    }
}

TEST(CompletionRing, RunsAcrossWordAndRingBoundaries)
{
    // Complete 1..199 ahead of 0 in a 64-bit ring: the run crosses
    // three words after two doublings, then 0 releases it at once.
    CompletionRing ring(64);
    for (std::uint64_t idx = 1; idx < 200; ++idx)
        EXPECT_FALSE(ring.complete(idx));
    EXPECT_EQ(ring.capacity(), 256u);
    EXPECT_TRUE(ring.complete(0));
    EXPECT_EQ(ring.nextInOrder(), 200u);
    // The ring wraps: indices past its capacity reuse cleared bits.
    for (std::uint64_t idx = 201; idx < 456; ++idx)
        EXPECT_FALSE(ring.complete(idx));
    EXPECT_EQ(ring.capacity(), 256u);
    EXPECT_TRUE(ring.complete(200));
    EXPECT_EQ(ring.nextInOrder(), 456u);
}

} // namespace
} // namespace zombie

/**
 * @file
 * Streamed bounded-memory replay tests (DESIGN.md section 7.16).
 *
 * The admission pump (Ssd::run(TraceSource&)) must be byte-identical
 * to the submit-everything reference below, which puts every record
 * in the host queue before the engine runs and drains once: arrival
 * events draw from a dedicated low sequence band, so every event's
 * (when, seq) dispatch key is independent of when the arrival was
 * pushed, and the epoch sampler stays armed while input remains. The
 * pump's heap footprint must also scale with the trace's address
 * footprint, not its record count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/ssd.hh"
#include "temp_path.hh"
#include "trace/formats.hh"
#include "trace/generator.hh"
#include "trace/prefetch.hh"
#include "util/alloc_counter.hh"

namespace zombie
{
namespace
{

/**
 * The submit-everything reference: every record enters the host
 * queue before the engine runs at all, then one drain.
 */
void
submitAll(Ssd &ssd, TraceSource &source)
{
    ssd.prefill();
    TraceRecord rec;
    while (source.next(rec))
        ssd.process(rec);
    ssd.drain();
}

/**
 * Results of @p scan replayed through runSystemOnScannedTrace (the
 * pump) and through submitAll on the identical drive, in that order.
 */
std::pair<SimResult, SimResult>
pumpAndReference(const ScannedTrace &scan, SystemKind system,
                 ExperimentOptions opts)
{
    SsdConfig cfg;
    opts.tweak = [&cfg](SsdConfig &c) { cfg = c; };
    SimResult pumped = runSystemOnScannedTrace(scan, system, opts);
    Ssd reference(cfg);
    const auto src = scan.factory();
    submitAll(reference, *src);
    return {std::move(pumped), reference.result()};
}

class StreamReplayTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("stream_replay.csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }

    /** Write a synthetic workload out as a generic-CSV fixture. */
    ExternalTraceConfig
    writeGeneratedCsv(std::uint64_t requests, std::uint64_t seed)
    {
        const WorkloadProfile profile =
            WorkloadProfile::preset(Workload::Mail, 1, requests, seed);
        SyntheticTraceGenerator gen(profile);
        GenericCsvWriter writer(tempPath());
        TraceRecord rec;
        while (gen.next(rec))
            writer.write(rec);
        ExternalTraceConfig cfg;
        cfg.path = tempPath();
        cfg.format = ExternalFormat::GenericCsv;
        cfg.versionPeriod = 4;
        return cfg;
    }

    /** Write a churny CSV over a fixed footprint of @p pages. */
    ExternalTraceConfig
    writeChurnCsv(std::uint64_t records, std::uint64_t pages)
    {
        std::ofstream out(tempPath());
        out << "lba,size,op,ts\n";
        for (std::uint64_t i = 0; i < records; ++i) {
            const std::uint64_t lba = (i * 7919) % pages;
            const char op = i % 4 == 3 ? 'R' : 'W';
            out << lba << ",4096," << op << ',' << i * 3000 << '\n';
        }
        out.close();
        ExternalTraceConfig cfg;
        cfg.path = tempPath();
        cfg.format = ExternalFormat::GenericCsv;
        cfg.versionPeriod = 3;
        return cfg;
    }
};

TEST_F(StreamReplayTest, StreamedMatchesMaterializedOnCsv)
{
    const ExternalTraceConfig tcfg = writeGeneratedCsv(8'000, 21);
    const ScannedTrace scan = scanExternalTrace(tcfg);
    ASSERT_GT(scan.records, 0u);

    ExperimentOptions opts;
    opts.poolCapacity = 2'000;
    const auto [streamed, materialized] =
        pumpAndReference(scan, SystemKind::MqDvp, opts);
    EXPECT_EQ(streamed.toStatSet().format(),
              materialized.toStatSet().format());
    EXPECT_GT(streamed.requests, 0u);
}

TEST_F(StreamReplayTest, StreamedMatchesMaterializedDeepQueue)
{
    // Identity must also hold with dedup on top of the pool and a
    // deep host queue, where many commands are in flight whenever
    // the pump admits the next record.
    const ExternalTraceConfig tcfg = writeGeneratedCsv(8'000, 22);
    const ScannedTrace scan = scanExternalTrace(tcfg);

    ExperimentOptions opts;
    opts.poolCapacity = 2'000;
    opts.queueDepth = 8;
    const auto [streamed, materialized] =
        pumpAndReference(scan, SystemKind::DvpDedup, opts);
    EXPECT_EQ(streamed.toStatSet().format(),
              materialized.toStatSet().format());
}

TEST_F(StreamReplayTest, StreamedGeneratorMatchesProcessLoop)
{
    // The pump also serves plain generated workloads: streaming the
    // generator through run(TraceSource&) must equal the
    // submit-everything-then-drain loop.
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Web, 1, 10'000, 33);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.queueDepth = 4;

    Ssd materialized(cfg);
    VectorSource records(SyntheticTraceGenerator(profile).generateAll());
    submitAll(materialized, records);
    const StatSet want = materialized.result().toStatSet();

    Ssd streamed(cfg);
    SyntheticTraceGenerator gen(profile);
    streamed.run(gen);
    const StatSet got = streamed.result().toStatSet();

    EXPECT_EQ(got.format(), want.format());
}

TEST_F(StreamReplayTest, SamplerSeriesMatchesSubmitAll)
{
    // A fine sampling interval leaves idle gaps between arrivals.
    // The pump keeps the sampler chain armed while it still has
    // input, so it closes exactly the epochs the submit-everything
    // run closes: same rows, same boundaries, same counter deltas.
    // Only the ctrl.outstanding gauge may differ — under
    // submit-everything it also counts commands that have not
    // arrived yet.
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 20'000, 42);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.mq.capacity = 5'000;
    cfg.statsInterval = ticksFromUs(100.0);

    Ssd reference(cfg);
    SyntheticTraceGenerator ref_gen(profile);
    submitAll(reference, ref_gen);
    (void)reference.result();

    Ssd pumped(cfg);
    SyntheticTraceGenerator gen(profile);
    pumped.run(gen);
    (void)pumped.result();

    const EpochSampler &want = *reference.sampler();
    const EpochSampler &got = *pumped.sampler();
    ASSERT_EQ(got.counterColumns(), want.counterColumns());
    ASSERT_EQ(got.gaugeColumns(), want.gaugeColumns());
    ASSERT_EQ(got.rows().size(), want.rows().size());
    ASSERT_GT(want.rows().size(), 1000u);
    const auto &gauges = want.gaugeColumns();
    for (std::size_t i = 0; i < want.rows().size(); ++i) {
        const EpochRow &w = want.rows()[i];
        const EpochRow &g = got.rows()[i];
        ASSERT_EQ(g.start, w.start) << "row " << i;
        ASSERT_EQ(g.end, w.end) << "row " << i;
        ASSERT_EQ(g.deltas, w.deltas) << "row " << i;
        for (std::size_t c = 0; c < gauges.size(); ++c) {
            if (gauges[c] != "ctrl.outstanding") {
                ASSERT_EQ(g.gauges[c], w.gauges[c])
                    << "row " << i << " gauge " << gauges[c];
            }
        }
    }
}

TEST_F(StreamReplayTest, PrefetchIsByteIdenticalAcrossBatchSizes)
{
    // Decode-ahead prefetch (trace/prefetch.hh) must be invisible:
    // every batch size — including a degenerate one-record batch
    // that maximizes producer/consumer interleaving — must match the
    // inline pull (prefetchBatch = 0) and the submit-everything
    // reference byte for byte.
    const ExternalTraceConfig tcfg = writeGeneratedCsv(8'000, 24);
    const ScannedTrace scan = scanExternalTrace(tcfg);
    ASSERT_GT(scan.records, 0u);

    ExperimentOptions opts;
    opts.poolCapacity = 2'000;
    opts.queueDepth = 8;
    const std::string want =
        pumpAndReference(scan, SystemKind::MqDvp, opts)
            .second.toStatSet().format();
    for (const std::uint64_t batch : {0, 1, 7, 4096}) {
        opts.prefetchBatch = batch;
        const std::string got = runSystemOnScannedTrace(
            scan, SystemKind::MqDvp, opts).toStatSet().format();
        EXPECT_EQ(got, want) << "batch=" << batch;
    }
}

TEST_F(StreamReplayTest, VersionRecurrenceRevivesZombies)
{
    // Overwrite -> rewrite of the same (LBA, version) must flow all
    // the way to the DVP as a revivable rebirth: with a version
    // period, overwritten content returns and the pool serves it.
    const ExternalTraceConfig tcfg = writeChurnCsv(12'000, 512);
    const ScannedTrace scan = scanExternalTrace(tcfg);

    ExperimentOptions opts;
    opts.poolCapacity = 4'096;
    const SimResult result = runSystemOnScannedTrace(
        scan, SystemKind::MqDvp, opts);
    EXPECT_GT(result.dvpRevivals, 0u);
}

TEST_F(StreamReplayTest, StreamedHeapScalesWithFootprintNotRecords)
{
    // Same 512-page footprint, 8x the records: a streaming replay's
    // allocation count must stay within noise of the short trace's,
    // because every structure — version map, compaction remap,
    // arrivals ring, event heap, histograms — is footprint- or
    // window-sized. A materializing replay would allocate 8x.
    const auto replayAllocs = [this](std::uint64_t records) {
        const ExternalTraceConfig tcfg = writeChurnCsv(records, 512);
        const ScannedTrace scan = scanExternalTrace(tcfg);
        SsdConfig cfg = SsdConfig::forFootprint(scan.footprintPages,
                                                SystemKind::Baseline);
        const std::uint64_t before = heapAllocCount();
        Ssd ssd(cfg);
        const auto src = scan.factory();
        ssd.run(*src);
        return heapAllocCount() - before;
    };

    const std::uint64_t small = replayAllocs(5'000);
    const std::uint64_t large = replayAllocs(40'000);
    EXPECT_LT(large, small + small / 2 + 256)
        << "streamed replay allocated per-record state: " << small
        << " allocs at 5k records vs " << large << " at 40k";
}

TEST_F(StreamReplayTest, PrefetchedHeapScalesWithFootprintNotRecords)
{
    // Same invariant with the decode-ahead thread in the loop: the
    // ring recycles batch buffers through its swap hand-off, so past
    // warm-up neither side of the pipe allocates per record. The
    // process-wide counter sees the producer thread too, so a leaky
    // ring (fresh vector per batch) would scale with record count.
    const auto replayAllocs = [this](std::uint64_t records) {
        const ExternalTraceConfig tcfg = writeChurnCsv(records, 512);
        const ScannedTrace scan = scanExternalTrace(tcfg);
        SsdConfig cfg = SsdConfig::forFootprint(scan.footprintPages,
                                                SystemKind::Baseline);
        const std::uint64_t before = heapAllocCount();
        Ssd ssd(cfg);
        const auto src = maybePrefetch(scan.factory(), 1024);
        ssd.run(*src);
        return heapAllocCount() - before;
    };

    const std::uint64_t small = replayAllocs(5'000);
    const std::uint64_t large = replayAllocs(40'000);
    EXPECT_LT(large, small + small / 2 + 256)
        << "prefetched replay allocated per-record state: " << small
        << " allocs at 5k records vs " << large << " at 40k";
}

} // namespace
} // namespace zombie

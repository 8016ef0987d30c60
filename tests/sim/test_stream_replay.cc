/**
 * @file
 * Streamed bounded-memory replay tests (DESIGN.md section 7.16).
 *
 * The admission pump (Ssd::run(TraceSource&)) admits each record
 * straight from the source, so its heap footprint must scale with
 * the trace's address footprint, not its record count; decode-ahead
 * prefetch must be invisible in its results; and its epoch sampler
 * must stay armed across idle gaps, so every row spans one interval.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
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

TEST_F(StreamReplayTest, SamplerSeriesTilesTheRun)
{
    // A fine sampling interval leaves idle gaps between arrivals.
    // The pump keeps the sampler chain armed while it still has
    // input, so the rows tile the run from the first arrival to the
    // end, and every row but the first and last spans exactly one
    // interval: a chain that lapsed in a gap would re-arm past it
    // and close one row over two intervals.
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, 20'000, 42);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.mq.capacity = 5'000;
    cfg.statsInterval = ticksFromUs(100.0);

    Ssd ssd(cfg);
    SyntheticTraceGenerator gen(profile);
    ssd.run(gen);
    const SimResult result = ssd.result();

    const std::vector<EpochRow> &rows = ssd.sampler()->rows();
    const ControllerStats &cs = ssd.pipeline().stats();
    ASSERT_GT(rows.size(), 1000u);
    EXPECT_EQ(rows.front().start, cs.firstArrival);
    EXPECT_EQ(rows.back().end,
              std::max(cs.lastCompletion, ssd.events().now()));
    for (std::size_t i = 0; i + 1 < rows.size(); ++i)
        ASSERT_EQ(rows[i].end, rows[i + 1].start) << "row " << i;
    for (std::size_t i = 1; i + 1 < rows.size(); ++i) {
        ASSERT_EQ(rows[i].end - rows[i].start, cfg.statsInterval)
            << "row " << i;
    }
    EXPECT_GT(result.requests, 0u);
}

TEST_F(StreamReplayTest, PrefetchIsByteIdenticalAcrossBatchSizes)
{
    // Decode-ahead prefetch (trace/prefetch.hh) must be invisible:
    // every batch size — including a degenerate one-record batch
    // that maximizes producer/consumer interleaving — must match the
    // inline pull (prefetchBatch = 0) byte for byte.
    const ExternalTraceConfig tcfg = writeGeneratedCsv(8'000, 24);
    const ScannedTrace scan = scanExternalTrace(tcfg);
    ASSERT_GT(scan.records, 0u);

    ExperimentOptions opts;
    opts.poolCapacity = 2'000;
    opts.queueDepth = 8;
    opts.prefetchBatch = 0;
    const std::string want = runSystemOnScannedTrace(
        scan, SystemKind::MqDvp, opts).toStatSet().format();
    for (const std::uint64_t batch : {1, 7, 4096}) {
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
    // host queues, event heap, histograms — is footprint- or
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

/**
 * A --no-compact replay sizes its drive from the largest LPN, so one
 * record at page 2^39 - 1 asks for a drive of over 2^39 pages, past
 * the 32-bit page tables' ceiling. The scan and the drive sizing
 * must end in the ceiling's zombie_fatal (exit 1), not in
 * std::bad_alloc (exit 134). Neither test builds an Ssd, so nothing
 * sized by the drive is allocated before the check fires.
 */
void
expectUncompactedReplayFatal(ExternalFormat format,
                             const std::string &line)
{
    const std::string path = test::uniqueTempPath("high_lpn.trace");
    {
        std::ofstream out(path);
        out << line << '\n';
    }
    ExternalTraceConfig cfg;
    cfg.path = path;
    cfg.format = format;
    cfg.compact = false;
    EXPECT_EXIT(
        {
            const ScannedTrace scan = scanExternalTrace(cfg);
            (void)driveConfig(scan.footprintPages, SystemKind::Baseline,
                              ExperimentOptions{});
        },
        testing::ExitedWithCode(1),
        "pages exceeds the 4294967295-page ceiling of 32-bit page "
        "tables");
    std::remove(path.c_str());
}

TEST(UncompactedReplayDeath, NativeRecordPastTheCeilingIsFatal)
{
    expectUncompactedReplayFatal(
        ExternalFormat::Native,
        "0 W 549755813887 0123456789abcdef0123456789abcdef 1");
}

TEST(UncompactedReplayDeath, CsvRecordPastTheCeilingIsFatal)
{
    expectUncompactedReplayFatal(ExternalFormat::GenericCsv,
                                 "549755813887,4096,W,0");
}

} // namespace
} // namespace zombie

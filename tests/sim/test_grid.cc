/**
 * @file
 * Scan-once grid sweep tests (sim/grid.hh, DESIGN.md section 7.17):
 * spec parsing, deterministic axis-major expansion, the TraceSpool
 * memory/disk spill, and the headline identity — every grid cell's
 * result is byte-identical to a standalone run of the same
 * configuration, regardless of spool placement or worker count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/grid.hh"
#include "temp_path.hh"
#include "trace/formats.hh"
#include "trace/generator.hh"

namespace zombie
{
namespace
{

class GridTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("grid.csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }

    /** Scan a small generated workload written as generic CSV. */
    ScannedTrace
    scanGeneratedCsv(std::uint64_t requests, std::uint64_t seed)
    {
        const WorkloadProfile profile =
            WorkloadProfile::preset(Workload::Mail, 1, requests, seed);
        {
            SyntheticTraceGenerator gen(profile);
            GenericCsvWriter writer(tempPath());
            TraceRecord rec;
            while (gen.next(rec))
                writer.write(rec);
        }
        ExternalTraceConfig cfg;
        cfg.path = tempPath();
        cfg.format = ExternalFormat::GenericCsv;
        cfg.versionPeriod = 4;
        return scanExternalTrace(cfg);
    }
};

TEST_F(GridTest, ParseReadsEveryAxis)
{
    const GridSpec spec = parseGridSpec(
        "system=dedup,dvp;depth=1,32;gc=greedy;pool=5000");
    EXPECT_EQ(spec.cells(), 4u); // 2 systems x 2 depths
    const auto cells =
        expandGrid(spec, SystemKind::Baseline, ExperimentOptions{});
    ASSERT_EQ(cells.size(), 4u);
    const SystemKind systems[] = {SystemKind::Dedup, SystemKind::Dedup,
                                  SystemKind::MqDvp, SystemKind::MqDvp};
    const std::uint32_t depths[] = {1, 32, 1, 32};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].system, systems[i]) << "cell " << i;
        EXPECT_EQ(cells[i].opts.queueDepth, depths[i]) << "cell " << i;
        EXPECT_EQ(cells[i].opts.gcPolicy, "greedy") << "cell " << i;
        EXPECT_EQ(cells[i].opts.poolCapacity, 5000u) << "cell " << i;
    }
}

TEST_F(GridTest, ParseEmptySpecIsOneCell)
{
    const GridSpec spec = parseGridSpec("");
    EXPECT_EQ(spec.cells(), 1u);
}

TEST(GridDeath, ParseRejectsMalformedSpecs)
{
    EXPECT_EXIT((void)parseGridSpec("speed=1"),
                testing::ExitedWithCode(1), "unknown grid axis");
    EXPECT_EXIT((void)parseGridSpec("depth"),
                testing::ExitedWithCode(1), "has no '='");
    EXPECT_EXIT((void)parseGridSpec("depth="),
                testing::ExitedWithCode(1), "has no values");
    EXPECT_EXIT((void)parseGridSpec("depth=fast"),
                testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT((void)parseGridSpec("gc=tidy"),
                testing::ExitedWithCode(1), "unknown gc policy");
    EXPECT_EXIT((void)parseGridSpec("system=raid"),
                testing::ExitedWithCode(1), "unknown system");
    EXPECT_EXIT((void)parseGridSpec("engine=serial"),
                testing::ExitedWithCode(1), "unknown grid axis");
}

TEST(GridDeath, AxisValuesParseLikeTheirFlags)
{
    // Grid values go through the same key rows as --queue-depth and
    // --pool: whole, in-range numbers only, never truncated.
    const auto bad = testing::ExitedWithCode(1);
    EXPECT_EXIT((void)parseGridSpec("depth=4294967297"), bad,
                "bad number '4294967297'");
    EXPECT_EXIT((void)parseGridSpec("depth=-1"), bad, "bad number");
    EXPECT_EXIT((void)parseGridSpec("depth=8x"), bad, "bad number");
    EXPECT_EXIT((void)parseGridSpec("pool=1e6"), bad, "bad number");
    EXPECT_EXIT((void)parseGridSpec("pool=-1"), bad, "bad number");
    EXPECT_EXIT((void)parseGridSpec("depth=1,,8"), bad, "bad number");
}

TEST_F(GridTest, ExpandIsAxisMajorWithMinimalLabels)
{
    const GridSpec spec =
        parseGridSpec("system=dvp,dedup;depth=1,8");
    ExperimentOptions base;
    base.poolCapacity = 1'234;
    base.statsCsv = "/tmp/should_be_dropped.csv";
    const auto cells =
        expandGrid(spec, SystemKind::Baseline, base);
    ASSERT_EQ(cells.size(), 4u);
    // System outermost, then depth; labels carry only spec axes.
    EXPECT_EQ(cells[0].label, "system=dvp depth=1");
    EXPECT_EQ(cells[1].label, "system=dvp depth=8");
    EXPECT_EQ(cells[2].label, "system=dedup depth=1");
    EXPECT_EQ(cells[3].label, "system=dedup depth=8");
    EXPECT_EQ(cells[1].system, SystemKind::MqDvp);
    EXPECT_EQ(cells[1].opts.queueDepth, 8u);
    // Unlisted knobs inherit the base; telemetry paths are dropped
    // so concurrent cells cannot race on one output file.
    EXPECT_EQ(cells[1].opts.poolCapacity, 1'234u);
    EXPECT_TRUE(cells[1].opts.statsCsv.empty());
}

TEST_F(GridTest, ExpandEmptySpecYieldsBaseCell)
{
    const auto cells = expandGrid(GridSpec{}, SystemKind::MqDvp,
                                  ExperimentOptions{});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].label, "base");
    EXPECT_EQ(cells[0].system, SystemKind::MqDvp);
}

TEST_F(GridTest, SpoolSpillsToDiskAndReplaysIdentically)
{
    const ScannedTrace scan = scanGeneratedCsv(4'000, 31);

    const TraceSpool in_memory(scan, 512ull << 20);
    EXPECT_FALSE(in_memory.onDisk());
    EXPECT_EQ(in_memory.records(), scan.records);

    // A one-record byte budget forces the spill path immediately.
    const TraceSpool on_disk(scan, sizeof(TraceRecord),
                             testing::TempDir());
    EXPECT_TRUE(on_disk.onDisk());
    EXPECT_EQ(on_disk.records(), scan.records);

    // Both spools and a fresh re-parse must agree record for record;
    // the binary spool round-trips every TraceRecord field exactly.
    const auto mem_src = in_memory.factory()();
    const auto disk_src = on_disk.factory()();
    const auto fresh = scan.factory();
    TraceRecord a, b, c;
    std::uint64_t n = 0;
    while (fresh->next(a)) {
        ASSERT_TRUE(mem_src->next(b));
        ASSERT_TRUE(disk_src->next(c));
        for (const TraceRecord *got : {&b, &c}) {
            EXPECT_EQ(got->arrival, a.arrival) << "record " << n;
            EXPECT_EQ(got->op, a.op);
            EXPECT_EQ(got->lpn, a.lpn);
            EXPECT_EQ(got->fp, a.fp);
            EXPECT_EQ(got->valueId, a.valueId);
            EXPECT_EQ(got->tenant, a.tenant);
        }
        ++n;
    }
    EXPECT_FALSE(mem_src->next(b));
    EXPECT_FALSE(disk_src->next(c));
    EXPECT_EQ(n, scan.records);
}

TEST_F(GridTest, CellsMatchStandaloneRunsEvenWhenSpooled)
{
    const ScannedTrace scan = scanGeneratedCsv(4'000, 32);
    const GridSpec spec =
        parseGridSpec("system=dvp,baseline;depth=1,8");
    ExperimentOptions base;
    base.poolCapacity = 2'000;

    const auto run = [&](std::uint64_t budget) {
        return runGridOnScannedTrace(scan, spec,
                                     SystemKind::Baseline, base,
                                     /*jobs=*/1, budget,
                                     testing::TempDir());
    };
    const auto spooled_mem = run(512ull << 20);
    const auto spooled_disk = run(sizeof(TraceRecord));
    const auto cells = expandGrid(spec, SystemKind::Baseline, base);
    ASSERT_EQ(spooled_mem.size(), cells.size());
    ASSERT_EQ(spooled_disk.size(), cells.size());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string want =
            runSystemOnScannedTrace(scan, cells[i].system,
                                    cells[i].opts)
                .toStatSet().format();
        EXPECT_EQ(spooled_mem[i].label, cells[i].label);
        EXPECT_EQ(spooled_mem[i].result.toStatSet().format(), want)
            << "memory spool, cell " << cells[i].label;
        EXPECT_EQ(spooled_disk[i].result.toStatSet().format(), want)
            << "disk spool, cell " << cells[i].label;
    }
}

TEST_F(GridTest, BaseOpReachesEveryCell)
{
    const ScannedTrace scan = scanGeneratedCsv(4'000, 34);
    const GridSpec spec = parseGridSpec("depth=1");
    ExperimentOptions base;
    base.poolCapacity = 2'000;
    base.op = 0.5;

    const auto cells = expandGrid(spec, SystemKind::MqDvp, base);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].opts.op, 0.5);

    const auto swept =
        runGridOnScannedTrace(scan, spec, SystemKind::MqDvp, base);
    ASSERT_EQ(swept.size(), 1u);
    const std::string got = swept[0].result.toStatSet().format();
    EXPECT_EQ(got, runSystemOnScannedTrace(scan, SystemKind::MqDvp, base)
                       .toStatSet()
                       .format());
    ExperimentOptions default_op = base;
    default_op.op = ExperimentOptions{}.op;
    EXPECT_NE(got, runSystemOnScannedTrace(scan, SystemKind::MqDvp,
                                           default_op)
                       .toStatSet()
                       .format());
}

TEST_F(GridTest, WorkerCountDoesNotChangeResults)
{
    const ScannedTrace scan = scanGeneratedCsv(4'000, 33);
    const GridSpec spec = parseGridSpec("depth=1,4;gc=greedy,auto");
    ExperimentOptions base;
    base.poolCapacity = 2'000;

    const auto serial = runGridOnScannedTrace(
        scan, spec, SystemKind::MqDvp, base, /*jobs=*/1);
    const auto fanned = runGridOnScannedTrace(
        scan, spec, SystemKind::MqDvp, base, /*jobs=*/4);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(fanned.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(fanned[i].label, serial[i].label);
        EXPECT_EQ(fanned[i].result.toStatSet().format(),
                  serial[i].result.toStatSet().format())
            << "cell " << serial[i].label;
    }
}

} // namespace
} // namespace zombie

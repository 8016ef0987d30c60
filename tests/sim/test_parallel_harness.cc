/**
 * @file
 * Determinism contract for the parallel experiment harness: running
 * the (workload x system) grid with any --jobs value must produce
 * identical results and byte-identical CSV output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim_bench.hh"
#include "temp_path.hh"

namespace zombie
{
namespace
{

std::vector<bench::WorkloadRow>
runGrid(unsigned jobs)
{
    ExperimentOptions base;
    base.requests = 2500;
    base.seed = 7;
    base.poolCapacity = 512;
    const std::vector<std::string> labels{"dvp"};
    return bench::runAcrossWorkloadsParallel(
        labels,
        [](const std::string &, ExperimentOptions &) {
            return SystemKind::MqDvp;
        },
        base, jobs);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(ParallelHarness, JobsValueDoesNotChangeResults)
{
    const auto serial = runGrid(1);
    const auto wide = runGrid(4);

    ASSERT_EQ(serial.size(), allWorkloads().size());
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const bench::WorkloadRow &a = serial[i];
        const bench::WorkloadRow &b = wide[i];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.baseline.flashPrograms, b.baseline.flashPrograms);
        EXPECT_EQ(a.baseline.flashErases, b.baseline.flashErases);
        EXPECT_EQ(a.baseline.allLatency.mean(),
                  b.baseline.allLatency.mean());
        ASSERT_EQ(a.systems.size(), 1u);
        ASSERT_EQ(b.systems.size(), 1u);
        const SimResult &sa = a.systems.at("dvp");
        const SimResult &sb = b.systems.at("dvp");
        EXPECT_EQ(sa.flashPrograms, sb.flashPrograms);
        EXPECT_EQ(sa.flashErases, sb.flashErases);
        EXPECT_EQ(sa.dvpRevivals, sb.dvpRevivals);
        EXPECT_EQ(sa.dedupHits, sb.dedupHits);
        EXPECT_EQ(sa.allLatency.mean(), sb.allLatency.mean());
        EXPECT_EQ(sa.allLatency.percentile(0.99),
                  sb.allLatency.percentile(0.99));
    }
}

TEST(ParallelHarness, CsvIsByteIdenticalAcrossJobs)
{
    const std::string p1 = test::uniqueTempPath("harness_j1.csv");
    const std::string p4 = test::uniqueTempPath("harness_j4.csv");
    bench::writeCsvRows(p1, runGrid(1));
    bench::writeCsvRows(p4, runGrid(4));

    const std::string csv1 = slurp(p1);
    const std::string csv4 = slurp(p4);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
    ASSERT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
}

TEST(ParallelHarness, WallSecondsRecordedPerCell)
{
    const auto rows = runGrid(2);
    for (const auto &row : rows) {
        ASSERT_EQ(row.wallSeconds.count("baseline"), 1u);
        ASSERT_EQ(row.wallSeconds.count("dvp"), 1u);
        EXPECT_GE(row.wallSeconds.at("baseline"), 0.0);
        EXPECT_GE(row.wallSeconds.at("dvp"), 0.0);
    }
}

} // namespace
} // namespace zombie

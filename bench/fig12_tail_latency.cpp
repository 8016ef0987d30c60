/**
 * @file
 * Figure 12: tail (99th percentile) latency improvement of the MQ
 * dead-value pool over Baseline, across reads and writes, plus the
 * deeper p99.9/max tail from the same histograms.
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args =
        figureArgs("Figure 12: tail (p99) latency improvement");
    args.parse(argc, argv);

    banner("Figure 12", "p99 latency improvement");

    const ExperimentOptions base = experimentOptions(args);

    const unsigned jobs = benchJobs(args);
    const auto rows = runAcrossWorkloadsParallel(
        std::vector<std::string>{"dvp"},
        [&](const std::string &, ExperimentOptions &) {
            return SystemKind::MqDvp;
        },
        base, jobs);
    maybeWriteCsv(args, rows);

    TextTable table({"workload", "baseline p99 (us)", "dvp p99 (us)",
                     "improvement", "read p99 impr", "write p99 impr"});
    std::vector<double> improvements;
    for (const auto &row : rows) {
        const SimResult &dvp = row.systems.at("dvp");
        const double imp = tailLatencyImprovement(dvp, row.baseline);
        improvements.push_back(imp);
        auto pct_of = [](const LatencyHistogram &a,
                         const LatencyHistogram &b) {
            const double base_p99 =
                static_cast<double>(b.percentile(0.99));
            if (base_p99 <= 0.0)
                return 0.0;
            return 1.0 - static_cast<double>(a.percentile(0.99)) /
                             base_p99;
        };
        table.addRow(
            {toString(row.workload),
             TextTable::num(static_cast<double>(
                                row.baseline.allLatency.percentile(
                                    0.99)) / 1e3, 1),
             TextTable::num(static_cast<double>(
                                dvp.allLatency.percentile(0.99)) / 1e3,
                            1),
             TextTable::pct(imp),
             TextTable::pct(pct_of(dvp.readLatency,
                                   row.baseline.readLatency)),
             TextTable::pct(pct_of(dvp.writeLatency,
                                   row.baseline.writeLatency))});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nmean p99 improvement: %s (paper: 22%% mean, up to "
                "43.1%%)\n",
                TextTable::pct(meanOf(improvements)).c_str());

    // Deeper tail: the p99.9 and max of the same latency histograms.
    // GC-induced queueing episodes are rare enough that their damage
    // concentrates past p99; the extreme tail shows whether the DVP
    // removed them or merely shifted them.
    TextTable deep({"workload", "baseline p99.9 (us)", "dvp p99.9 (us)",
                    "baseline max (us)", "dvp max (us)"});
    for (const auto &row : rows) {
        const SimResult &dvp = row.systems.at("dvp");
        deep.addRow(
            {toString(row.workload),
             TextTable::num(static_cast<double>(
                                row.baseline.allLatency.percentile(
                                    0.999)) / 1e3, 1),
             TextTable::num(static_cast<double>(
                                dvp.allLatency.percentile(0.999)) / 1e3,
                            1),
             TextTable::num(static_cast<double>(
                                row.baseline.allLatency.maxValue()) /
                                1e3, 1),
             TextTable::num(static_cast<double>(
                                dvp.allLatency.maxValue()) / 1e3, 1)});
    }
    std::printf("\nextreme tail (same histograms):\n%s",
                deep.render().c_str());

    paperShape(
        "tail improvements are similar in shape to the Figure 11 mean "
        "improvements: fewer programs and erases mean fewer episodes "
        "of GC-induced queueing behind a busy die.");
    reportWallClock(rows, jobs);
    maybeWriteWallJson(args, rows, jobs);
    return 0;
}

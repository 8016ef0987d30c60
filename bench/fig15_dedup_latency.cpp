/**
 * @file
 * Figure 15: mean latency improvement over Baseline for DVP, Dedup,
 * and DVP+Dedup (section VII-A latency analysis).
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args =
        figureArgs("Figure 15: latency under Dedup / DVP / DVP+Dedup");
    args.parse(argc, argv);

    banner("Figure 15", "mean latency improvement: combined systems");

    const ExperimentOptions base = experimentOptions(args);

    const unsigned jobs = benchJobs(args);
    const auto rows = runAcrossWorkloadsParallel(
        std::vector<std::string>{"dvp", "dedup", "dvp+dedup"},
        [&](const std::string &label, ExperimentOptions &) {
            if (label == "dedup")
                return SystemKind::Dedup;
            if (label == "dvp")
                return SystemKind::MqDvp;
            return SystemKind::DvpDedup;
        },
        base, jobs);
    maybeWriteCsv(args, rows);

    TextTable table({"workload", "dvp", "dedup", "dvp+dedup",
                     "combined vs dedup alone"});
    std::vector<double> extra_improvements;
    for (const auto &row : rows) {
        const SimResult &dvp = row.systems.at("dvp");
        const SimResult &dedup = row.systems.at("dedup");
        const SimResult &both = row.systems.at("dvp+dedup");
        const double extra = meanLatencyImprovement(both, dedup);
        extra_improvements.push_back(extra);
        table.addRow(
            {toString(row.workload),
             TextTable::pct(meanLatencyImprovement(dvp, row.baseline)),
             TextTable::pct(
                 meanLatencyImprovement(dedup, row.baseline)),
             TextTable::pct(meanLatencyImprovement(both, row.baseline)),
             TextTable::pct(extra)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nmean further improvement of dvp+dedup over dedup "
                "alone: %s (paper: 9.8%% mean, up to 15%%)\n",
                TextTable::pct(meanOf(extra_improvements)).c_str());

    paperShape(
        "dedup already improves latency substantially (up to ~58.5%% "
        "in the paper); adding the dead-value pool improves it "
        "further on every workload.");
    reportWallClock(rows, jobs);
    maybeWriteWallJson(args, rows, jobs);
    return 0;
}

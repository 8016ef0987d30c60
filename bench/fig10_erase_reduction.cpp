/**
 * @file
 * Figure 10: reduction in erase counts for the 200K-equivalent
 * dead-value pool and the Ideal system, normalized to Baseline.
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args = figureArgs("Figure 10: reduction in erase counts");
    args.parse(argc, argv);

    banner("Figure 10", "reduction in erase counts");

    const ExperimentOptions base = experimentOptions(args);

    const unsigned jobs = benchJobs(args);
    const auto rows = runAcrossWorkloadsParallel(
        std::vector<std::string>{"dvp", "ideal"},
        [&](const std::string &label, ExperimentOptions &) {
            return label == "ideal" ? SystemKind::Ideal
                                    : SystemKind::MqDvp;
        },
        base, jobs);
    maybeWriteCsv(args, rows);

    TextTable table({"workload", "baseline erases", "dvp erases",
                     "dvp reduction", "ideal reduction"});
    std::vector<double> reductions;
    for (const auto &row : rows) {
        const SimResult &dvp = row.systems.at("dvp");
        const SimResult &ideal = row.systems.at("ideal");
        const double red = eraseReduction(dvp, row.baseline);
        reductions.push_back(red);
        table.addRow({toString(row.workload),
                      std::to_string(row.baseline.flashErases),
                      std::to_string(dvp.flashErases),
                      "-" + TextTable::pct(red),
                      "-" + TextTable::pct(
                          eraseReduction(ideal, row.baseline))});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nmean erase reduction: %s (paper: 35.5%% mean, up "
                "to 59.2%% on mail)\n",
                TextTable::pct(meanOf(reductions)).c_str());

    paperShape(
        "erase reductions track the Figure 9 write reductions — "
        "revived garbage pages no longer need to be erased; mail "
        "benefits most.");
    reportWallClock(rows, jobs);
    maybeWriteWallJson(args, rows, jobs);
    return 0;
}

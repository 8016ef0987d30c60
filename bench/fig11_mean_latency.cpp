/**
 * @file
 * Figure 11: mean latency improvement of the MQ dead-value pool over
 * Baseline, with the LX-SSD prior-work comparison [20].
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args =
        figureArgs("Figure 11: mean latency improvement (incl. LX-SSD)");
    args.parse(argc, argv);

    banner("Figure 11", "mean latency improvement");

    const ExperimentOptions base = experimentOptions(args);

    const unsigned jobs = benchJobs(args);
    const auto rows = runAcrossWorkloadsParallel(
        std::vector<std::string>{"dvp", "lx-ssd"},
        [&](const std::string &label, ExperimentOptions &) {
            return label == "lx-ssd" ? SystemKind::LxSsd
                                     : SystemKind::MqDvp;
        },
        base, jobs);
    maybeWriteCsv(args, rows);

    TextTable table({"workload", "baseline mean (us)", "dvp mean (us)",
                     "dvp improvement", "lx-ssd improvement"});
    std::vector<double> dvp_improvements, lx_improvements;
    for (const auto &row : rows) {
        const SimResult &dvp = row.systems.at("dvp");
        const SimResult &lx = row.systems.at("lx-ssd");
        const double dvp_imp = meanLatencyImprovement(dvp, row.baseline);
        const double lx_imp = meanLatencyImprovement(lx, row.baseline);
        dvp_improvements.push_back(dvp_imp);
        lx_improvements.push_back(lx_imp);
        table.addRow(
            {toString(row.workload),
             TextTable::num(row.baseline.allLatency.mean() / 1e3, 1),
             TextTable::num(dvp.allLatency.mean() / 1e3, 1),
             TextTable::pct(dvp_imp), TextTable::pct(lx_imp)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nmean improvement: dvp %s, lx-ssd %s "
                "(paper: dvp 24.5%% mean / up to 52%%; dvp beats "
                "lx-ssd by ~2x on average, ~3x on mail)\n",
                TextTable::pct(meanOf(dvp_improvements)).c_str(),
                TextTable::pct(meanOf(lx_improvements)).c_str());

    paperShape(
        "write-intensive traces benefit most (mail the maximum, "
        "desktop the minimum); LX-SSD trails the MQ dead-value pool "
        "everywhere because its LBA-keyed recency pool cannot catch "
        "cross-address rebirths.");
    reportWallClock(rows, jobs);
    maybeWriteWallJson(args, rows, jobs);
    return 0;
}

/**
 * @file
 * Figure 14: number of flash writes, normalized to Baseline, for
 * Dedup alone, DVP alone, and DVP layered on Dedup (section VII).
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args =
        figureArgs("Figure 14: writes under Dedup / DVP / DVP+Dedup");
    args.parse(argc, argv);

    banner("Figure 14", "normalized writes: dedup vs dvp vs combined");

    const ExperimentOptions base = experimentOptions(args);

    const unsigned jobs = benchJobs(args);
    const auto rows = runAcrossWorkloadsParallel(
        std::vector<std::string>{"dedup", "dvp", "dvp+dedup"},
        [&](const std::string &label, ExperimentOptions &) {
            if (label == "dedup")
                return SystemKind::Dedup;
            if (label == "dvp")
                return SystemKind::MqDvp;
            return SystemKind::DvpDedup;
        },
        base, jobs);
    maybeWriteCsv(args, rows);

    TextTable table({"workload", "dedup writes", "dvp writes",
                     "dvp+dedup writes", "combined vs dedup alone"});
    std::vector<double> dedup_reductions, extra_reductions;
    for (const auto &row : rows) {
        const SimResult &dedup = row.systems.at("dedup");
        const SimResult &dvp = row.systems.at("dvp");
        const SimResult &both = row.systems.at("dvp+dedup");
        auto normalized = [&](const SimResult &r) {
            return TextTable::pct(
                row.baseline.flashPrograms
                    ? static_cast<double>(r.flashPrograms) /
                          static_cast<double>(
                              row.baseline.flashPrograms)
                    : 0.0);
        };
        const double extra = writeReduction(both, dedup);
        dedup_reductions.push_back(
            writeReduction(dedup, row.baseline));
        extra_reductions.push_back(extra);
        table.addRow({toString(row.workload), normalized(dedup),
                      normalized(dvp), normalized(both),
                      "-" + TextTable::pct(extra)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nmean: dedup removes %s of baseline writes "
                "(paper: 40.5%%); layering DVP on dedup removes a "
                "further %s (paper: another 11%%)\n",
                TextTable::pct(meanOf(dedup_reductions)).c_str(),
                TextTable::pct(meanOf(extra_reductions)).c_str());

    paperShape(
        "the mechanisms are complementary: DVP+Dedup always writes "
        "less than either alone, because dedup only covers live "
        "duplicates while the dead-value pool covers content whose "
        "copies are all garbage (the Figure 13 window).");
    reportWallClock(rows, jobs);
    maybeWriteWallJson(args, rows, jobs);
    return 0;
}

/**
 * @file
 * Quickstart: simulate the mail workload on the Baseline SSD and on
 * the MQ dead-value-pool SSD, and print the headline comparison the
 * paper makes (write reduction, erase reduction, latency improvement).
 *
 * Run: ./quickstart [--requests N] [--pool N] [--workload mail]
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "util/table.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Quickstart: Baseline vs MQ dead-value pool");
    addExperimentKeys(args, {{"workload"}, {"requests", "200000"},
                             {"pool", "200000"}, {"seed"}});
    args.parse(argc, argv);

    const ExperimentOptions opts = experimentOptions(args);
    const Workload w = workloadFromString(args.getString("workload"));

    std::printf("%s", sectionBanner("zombie quickstart: " +
                                    toString(w) + " workload").c_str());

    const SimResult base = runSystem(w, SystemKind::Baseline, opts);
    const SimResult dvp = runSystem(w, SystemKind::MqDvp, opts);

    TextTable table({"metric", "baseline", "mq-dvp", "change"});
    table.addRow({"flash programs",
                  std::to_string(base.flashPrograms),
                  std::to_string(dvp.flashPrograms),
                  "-" + TextTable::pct(writeReduction(dvp, base))});
    table.addRow({"flash erases",
                  std::to_string(base.flashErases),
                  std::to_string(dvp.flashErases),
                  "-" + TextTable::pct(eraseReduction(dvp, base))});
    table.addRow({"mean latency (us)",
                  TextTable::num(base.allLatency.mean() / 1000.0),
                  TextTable::num(dvp.allLatency.mean() / 1000.0),
                  "-" + TextTable::pct(
                      meanLatencyImprovement(dvp, base))});
    table.addRow({"p99 latency (us)",
                  TextTable::num(static_cast<double>(
                      base.allLatency.percentile(0.99)) / 1000.0),
                  TextTable::num(static_cast<double>(
                      dvp.allLatency.percentile(0.99)) / 1000.0),
                  "-" + TextTable::pct(
                      tailLatencyImprovement(dvp, base))});
    table.addRow({"writes short-circuited", "0",
                  std::to_string(dvp.dvpRevivals),
                  TextTable::pct(
                      static_cast<double>(dvp.dvpRevivals) /
                      static_cast<double>(dvp.writes)) + " of writes"});
    std::printf("%s", table.render().c_str());

    std::printf("\nFull MQ-DVP stat dump:\n%s",
                dvp.toStatSet().format().c_str());
    return 0;
}

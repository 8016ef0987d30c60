/**
 * @file
 * Ablation: sensitivity of the dead-value-pool benefit to drive
 * utilization (preconditioning level). GC pressure — and therefore
 * both the cost of a flash write and the risk of pool entries being
 * erased before revival — grows with utilization; this bench sweeps
 * it on the mail workload.
 */

#include <cstdio>

#include "sim_bench.hh"

using namespace zombie;
using namespace zombie::bench;

int
main(int argc, char **argv)
{
    ArgParser args = simBenchArgs(
        "Ablation: DVP benefit vs drive utilization", "200000",
        {{"workload"}});
    args.parse(argc, argv);
    const Workload w = workloadFromString(args.getString("workload"));
    const unsigned jobs = benchJobs(args);
    const ExperimentOptions base_opts = experimentOptions(args);

    banner("Ablation", "drive utilization (preconditioning) sweep");

    // 4 prefill levels x {Baseline, MqDvp} = 8 independent cells;
    // even cells are baselines, odd cells the matching DVP run.
    const std::vector<double> prefills{0.40, 0.55, 0.70, 0.85};
    const auto cells = parallelMap(
        jobs, prefills.size() * 2, [&](std::size_t i) {
            const double prefill = prefills[i / 2];
            const SystemKind kind =
                i % 2 == 0 ? SystemKind::Baseline : SystemKind::MqDvp;
            ExperimentOptions opts = base_opts;
            opts.tweak = [prefill](SsdConfig &cfg) {
                cfg.prefillFraction = prefill;
            };
            std::fprintf(stderr, "  running prefill=%.2f %s...\n",
                         prefill,
                         i % 2 == 0 ? "baseline" : "mq-dvp");
            return runSystem(w, kind, opts);
        });

    TextTable table({"prefill", "base WA", "base mean (us)",
                     "write reduction", "erase reduction",
                     "latency improvement", "pool lost to GC"});
    for (std::size_t i = 0; i < prefills.size(); ++i) {
        const SimResult &base = cells[i * 2];
        const SimResult &dvp = cells[i * 2 + 1];

        const double wa =
            base.writes
                ? static_cast<double>(base.flashPrograms) /
                      static_cast<double>(base.writes)
                : 0.0;
        table.addRow(
            {TextTable::pct(prefills[i], 0), TextTable::num(wa, 2),
             TextTable::num(base.allLatency.mean() / 1e3, 1),
             TextTable::pct(writeReduction(dvp, base)),
             TextTable::pct(eraseReduction(dvp, base)),
             TextTable::pct(meanLatencyImprovement(dvp, base)),
             std::to_string(dvp.dvpStats.gcEvictions)});
    }
    std::printf("%s", table.render().c_str());

    paperShape(
        "higher utilization means more GC per host write, which both "
        "raises the baseline's cost (bigger absolute savings for the "
        "pool) and erases more pool entries before revival (GC "
        "evictions grow) - the tension section IV-D's popularity-"
        "aware victim selection addresses.");
    return 0;
}

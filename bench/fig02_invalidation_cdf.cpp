/**
 * @file
 * Figure 2: CDF of per-value invalidation counts for the mail
 * workload. The paper's headline reading: only ~30% of values written
 * during the trace are still live at the end (x = 0 invalidations).
 */

#include <cstdio>

#include "analysis/lifecycle.hh"
#include "bench_common.hh"
#include "trace/generator.hh"
#include "util/stats.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Figure 2: CDF of invalidation counts (mail)");
    addExperimentKeys(args,
                      {{"requests", "300000"}, {"seed"}, {"workload"}});
    args.parse(argc, argv);

    const ExperimentOptions opts = experimentOptions(args);
    const Workload w = workloadFromString(args.getString("workload"));
    const WorkloadProfile profile =
        WorkloadProfile::preset(w, 1, opts.requests, opts.seed);

    bench::banner("Figure 2", "CDF of invalidation counts (" +
                                  toString(w) + ")");

    LifecycleTracker tracker;
    tracker.observeAll(SyntheticTraceGenerator(profile).generateAll());

    std::vector<double> counts;
    for (const auto &[fp, v] : tracker.values())
        counts.push_back(static_cast<double>(v.invalidations));
    const auto cdf = thinCdf(buildCdf(std::move(counts)), 16);

    TextTable table({"invalidations <=", "fraction of values"});
    for (const CdfPoint &p : cdf) {
        table.addRow({TextTable::num(p.x, 0),
                      TextTable::pct(p.fraction)});
    }
    std::printf("%s", table.render().c_str());

    const LifecycleSummary s = tracker.summary();
    std::printf("\nvalues never invalidated (still live): %s of %llu "
                "unique values\n",
                TextTable::pct(static_cast<double>(s.liveValues) /
                               static_cast<double>(s.uniqueValues))
                    .c_str(),
                static_cast<unsigned long long>(s.uniqueValues));

    bench::paperShape(
        "a minority of values are never invalidated (~30% in the "
        "paper's mail trace); the CDF has a long tail of values "
        "invalidated many times.");
    return 0;
}

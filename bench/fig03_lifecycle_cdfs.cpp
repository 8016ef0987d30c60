/**
 * @file
 * Figure 3: cumulative share of (a) writes, (b) invalidations and
 * (c) rebirths held by unique values sorted by write popularity.
 * The paper's reading: ~20% of values account for ~80% of writes,
 * and the invalidation/rebirth distributions track write popularity.
 */

#include <cstdio>

#include "analysis/lifecycle.hh"
#include "bench_common.hh"
#include "trace/generator.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args(
        "Figure 3: writes/invalidations/rebirths per unique value");
    addExperimentKeys(args,
                      {{"requests", "300000"}, {"seed"}, {"workload"}});
    args.parse(argc, argv);

    const ExperimentOptions opts = experimentOptions(args);
    const Workload w = workloadFromString(args.getString("workload"));
    const WorkloadProfile profile =
        WorkloadProfile::preset(w, 1, opts.requests, opts.seed);

    bench::banner("Figure 3", "value-popularity share curves (" +
                                  toString(w) + ")");

    LifecycleTracker tracker;
    tracker.observeAll(SyntheticTraceGenerator(profile).generateAll());
    const auto rows = tracker.valuesByPopularity();

    // All three series use the same x-order: values sorted by writes.
    std::vector<std::uint64_t> writes, invalidations, rebirths;
    for (const auto &v : rows) {
        writes.push_back(v.writes);
        invalidations.push_back(v.invalidations);
        rebirths.push_back(v.reuses);
    }
    auto cum_share = [](const std::vector<std::uint64_t> &series,
                        double item_fraction) {
        double total = 0.0, head = 0.0;
        const auto cut = static_cast<std::size_t>(
            item_fraction * static_cast<double>(series.size()));
        for (std::size_t i = 0; i < series.size(); ++i) {
            total += static_cast<double>(series[i]);
            if (i < cut)
                head += static_cast<double>(series[i]);
        }
        return total > 0.0 ? head / total : 0.0;
    };

    TextTable table({"top values", "(a) share of writes",
                     "(b) share of invalidations",
                     "(c) share of rebirths"});
    for (double frac : {0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}) {
        table.addRow({TextTable::pct(frac, 0),
                      TextTable::pct(cum_share(writes, frac)),
                      TextTable::pct(cum_share(invalidations, frac)),
                      TextTable::pct(cum_share(rebirths, frac))});
    }
    std::printf("%s", table.render().c_str());

    bench::paperShape(
        "around 20% of values account for ~80% of writes, and the "
        "same popular values dominate invalidations and rebirths "
        "(write popularity predicts rebirth).");
    return 0;
}

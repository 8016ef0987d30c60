/**
 * @file
 * Figure 4: the time perspective of value life-cycles, measured (as
 * in the paper) in intervening writes — (a) creation to death,
 * (b) death to rebirth, (c) rebirth count — binned by popularity
 * degree.
 */

#include <bit>
#include <cstdio>
#include <map>

#include "analysis/lifecycle.hh"
#include "bench_common.hh"
#include "trace/generator.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Figure 4: life-cycle timing vs popularity degree");
    addExperimentKeys(args,
                      {{"requests", "300000"}, {"seed"}, {"workload"}});
    args.parse(argc, argv);

    const ExperimentOptions opts = experimentOptions(args);
    const Workload w = workloadFromString(args.getString("workload"));
    const WorkloadProfile profile =
        WorkloadProfile::preset(w, 1, opts.requests, opts.seed);

    bench::banner("Figure 4",
                  "creation->death / death->rebirth vs popularity (" +
                      toString(w) + ")");

    LifecycleTracker tracker;
    tracker.observeAll(SyntheticTraceGenerator(profile).generateAll());

    struct Bin
    {
        std::uint64_t values = 0;
        std::uint64_t deaths = 0;
        std::uint64_t rebirths = 0;
        std::uint64_t reuses = 0;
        std::uint64_t sumToDeath = 0;
        std::uint64_t sumToRebirth = 0;
    };
    // Popularity degree bins: powers of two of the write count.
    std::map<std::uint64_t, Bin> bins;
    for (const auto &[fp, v] : tracker.values()) {
        const std::uint64_t degree =
            std::uint64_t{1} << (std::bit_width(v.writes) - 1);
        Bin &bin = bins[degree];
        ++bin.values;
        bin.deaths += v.deaths;
        bin.rebirths += v.rebirths;
        bin.reuses += v.reuses;
        bin.sumToDeath += v.sumCreationToDeath;
        bin.sumToRebirth += v.sumDeathToRebirth;
    }

    TextTable table({"popularity degree", "values",
                     "(a) writes creation->death",
                     "(b) writes death->rebirth",
                     "(c) rebirths per value"});
    for (const auto &[degree, bin] : bins) {
        const double to_death =
            bin.deaths ? static_cast<double>(bin.sumToDeath) /
                             static_cast<double>(bin.deaths)
                       : 0.0;
        const double to_rebirth =
            bin.rebirths ? static_cast<double>(bin.sumToRebirth) /
                               static_cast<double>(bin.rebirths)
                         : 0.0;
        const double rebirths_per_value =
            static_cast<double>(bin.reuses) /
            static_cast<double>(bin.values);
        table.addRow({std::to_string(degree),
                      std::to_string(bin.values),
                      TextTable::num(to_death, 0),
                      TextTable::num(to_rebirth, 0),
                      TextTable::num(rebirths_per_value, 2)});
    }
    std::printf("%s", table.render().c_str());

    bench::paperShape(
        "highly popular values die and are reborn more quickly "
        "(columns a/b shrink as the degree grows) and accumulate far "
        "more rebirths (column c grows with the degree).");
    return 0;
}

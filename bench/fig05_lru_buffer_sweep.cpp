/**
 * @file
 * Figure 5: number of writes remaining after reuse through a simple
 * LRU dead-value buffer of 100K..1M entries, per FIU day-trace,
 * against the infinite-buffer lower bound.
 *
 * Buffer sizes scale with --requests so the capacity-pressure shape
 * survives at small trace scale (the paper's 100K..1M entries pair
 * with multi-million-request day traces).
 */

#include <cstdio>

#include "analysis/lifecycle.hh"
#include "analysis/reuse.hh"
#include "bench_common.hh"
#include "trace/generator.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Figure 5: writes vs LRU dead-value buffer size");
    addExperimentKeys(args, {{"requests", "200000"}, {"seed"}});
    args.addFlag("paper-sizes",
                 "use the paper's absolute buffer sizes (100K..1M) "
                 "instead of request-scaled ones");
    args.parse(argc, argv);
    const ExperimentOptions opts = experimentOptions(args);

    bench::banner("Figure 5",
                  "writes remaining with LRU buffers vs infinite");

    // The paper's sweep is 100K..1M entries against day traces of
    // millions of requests; scale the sizes to the trace length.
    std::vector<std::pair<std::string, std::uint64_t>> sizes;
    if (args.getFlag("paper-sizes")) {
        sizes = {{"100K", 100'000}, {"250K", 250'000},
                 {"500K", 500'000}, {"1M", 1'000'000}};
    } else {
        const auto scale = [&](double f) {
            return std::max<std::uint64_t>(
                64, static_cast<std::uint64_t>(
                        f * static_cast<double>(opts.requests)));
        };
        sizes = {{"0.5%", scale(0.005)},
                 {"1%", scale(0.01)},
                 {"2.5%", scale(0.025)},
                 {"10%", scale(0.10)}};
    }

    std::vector<std::string> header{"trace", "writes"};
    for (const auto &[label, entries] : sizes)
        header.push_back("lru " + label);
    header.push_back("infinite");
    TextTable table(std::move(header));

    for (const DayTrace &day : fiuDayTraces(opts.requests, opts.seed)) {
        const auto trace =
            SyntheticTraceGenerator(day.profile).generateAll();

        std::vector<std::string> row{day.label};
        LifecycleTracker ideal;
        ideal.observeAll(trace);
        const LifecycleSummary s = ideal.summary();
        row.push_back(std::to_string(s.writes));

        for (const auto &[label, entries] : sizes) {
            const ReuseResult r = analyzeLruReuse(trace, entries);
            row.push_back(std::to_string(r.actualWrites()));
        }
        row.push_back(std::to_string(s.writes - s.reusableWrites));
        table.addRow(std::move(row));
    }
    std::printf("%s", table.render().c_str());

    bench::paperShape(
        "even a small LRU buffer removes a large share of writes (up "
        "to ~62% in the paper); large-footprint traces (mail days) "
        "keep a visible gap to the infinite buffer that shrinks as "
        "the buffer grows.");
    return 0;
}

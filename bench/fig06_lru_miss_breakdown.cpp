/**
 * @file
 * Figure 6: average number of capacity misses in a small LRU
 * dead-value buffer, per value-popularity degree, for the m2 trace.
 * The paper's reading: plain LRU loses precisely the popular values
 * the mechanism should keep — the motivation for the MQ design.
 */

#include <cstdio>

#include "analysis/reuse.hh"
#include "bench_common.hh"
#include "dvp/lru_dvp.hh"
#include "dvp/mq_dvp.hh"
#include "trace/generator.hh"

using namespace zombie;

namespace
{

std::vector<MissBreakdownBin>
replay(const std::vector<TraceRecord> &trace,
       std::unique_ptr<DeadValuePool> pool)
{
    ReuseAnalyzer analyzer(std::move(pool));
    analyzer.observeAll(trace);
    return analyzer.missBreakdown();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(
        "Figure 6: LRU capacity misses per popularity degree (m2)");
    addExperimentKeys(args, {{"requests", "200000"}, {"seed"}});
    args.addOption("buffer-frac", "0.01",
                   "buffer entries as a fraction of requests "
                   "(the paper's 100K entries vs day-long traces)");
    args.parse(argc, argv);
    const ExperimentOptions opts = experimentOptions(args);
    const auto capacity = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                args.getDouble("buffer-frac", 0.0, 1.0) *
                static_cast<double>(opts.requests)));

    bench::banner("Figure 6", "avg buffer misses vs popularity degree");

    // m2 = mail, day 2 (the trace the paper studies here).
    const WorkloadProfile profile = WorkloadProfile::preset(
        Workload::Mail, 2, opts.requests, opts.seed);
    const auto trace = SyntheticTraceGenerator(profile).generateAll();

    const auto lru_bins =
        replay(trace, std::make_unique<LruDvp>(capacity));
    MqDvpConfig mq_cfg;
    mq_cfg.capacity = capacity;
    const auto mq_bins =
        replay(trace, std::make_unique<MqDvp>(mq_cfg));

    TextTable table({"popularity degree", "values",
                     "avg LRU misses", "avg MQ misses"});
    for (std::size_t i = 0; i < lru_bins.size(); ++i) {
        const auto &bin = lru_bins[i];
        const double mq_misses =
            i < mq_bins.size() ? mq_bins[i].avgMisses : 0.0;
        table.addRow({std::to_string(bin.popularityDegree),
                      std::to_string(bin.valueCount),
                      TextTable::num(bin.avgMisses, 2),
                      TextTable::num(mq_misses, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nbuffer capacity: %llu entries\n",
                static_cast<unsigned long long>(capacity));

    bench::paperShape(
        "LRU misses concentrate on popular values (average misses "
        "grow with the popularity degree); the MQ replacement cuts "
        "exactly those misses.");
    return 0;
}

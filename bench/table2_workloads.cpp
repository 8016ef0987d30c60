/**
 * @file
 * Table II: workload characteristics — write ratio and unique-value
 * fractions for writes and reads — paper values vs the synthetic
 * generator's measurements. This is the calibration contract for the
 * trace substitution (DESIGN.md section 2).
 */

#include <cstdio>

#include "bench_common.hh"
#include "trace/generator.hh"
#include "trace/summary.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args(
        "Table II: workload characteristics, paper vs measured");
    addExperimentKeys(args,
                      {{"requests", "200000"}, {"seed"}, {"jobs"}});
    args.parse(argc, argv);
    const ExperimentOptions opts = experimentOptions(args);

    bench::banner("Table II", "workload characteristics");

    // Each workload's trace generation + summarization is an
    // independent, seed-deterministic cell; run them concurrently
    // and emit the rows in fixed workload order.
    const std::vector<Workload> workloads = allWorkloads();
    const auto summaries = parallelMap(
        bench::benchJobs(args), workloads.size(),
        [&workloads, &opts](std::size_t i) {
            const WorkloadProfile profile = WorkloadProfile::preset(
                workloads[i], 1, opts.requests, opts.seed);
            SyntheticTraceGenerator gen(profile);
            TraceSummarizer summarizer;
            TraceRecord rec;
            while (gen.next(rec))
                summarizer.observe(rec);
            return summarizer.finish();
        });

    TextTable table({"trace", "WR% paper", "WR% meas",
                     "uniqW% paper", "uniqW% meas", "uniqR% paper",
                     "uniqR% meas"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Workload w = workloads[i];
        const TraceSummary &s = summaries[i];
        const TableIiRow paper = tableIi(w);

        table.addRow({toString(w),
                      TextTable::pct(paper.writeRatio, 1),
                      TextTable::pct(s.writeRatio(), 1),
                      TextTable::pct(paper.uniqueWriteValue, 1),
                      TextTable::pct(s.uniqueWriteValueFraction(), 1),
                      TextTable::pct(paper.uniqueReadValue, 1),
                      TextTable::pct(s.uniqueReadValueFraction(), 1)});
    }
    std::printf("%s", table.render().c_str());

    bench::paperShape(
        "measured columns should sit near the paper's Table II; mail "
        "stands out with very low unique write values (high write "
        "redundancy) but high unique read values.");
    return 0;
}

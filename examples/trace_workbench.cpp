/**
 * @file
 * Trace workbench: generate a synthetic FIU-style trace, save it to a
 * file (text or binary), and/or characterize any trace file — the
 * entry point for using this library with external content traces.
 *
 * Examples:
 *   ./trace_workbench --workload mail --requests 100000 \
 *       --out /tmp/mail.trc --format binary
 *   ./trace_workbench --in /tmp/mail.trc
 */

#include <cstdio>

#include "analysis/lifecycle.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/summary.hh"
#include "util/table.hh"

using namespace zombie;

namespace
{

void
characterize(const std::vector<TraceRecord> &records,
             const std::string &label)
{
    std::printf("%s", sectionBanner("trace: " + label).c_str());

    const TraceSummary s = summarizeTrace(records);
    LifecycleTracker lifecycle;
    lifecycle.observeAll(records);
    const LifecycleSummary l = lifecycle.summary();

    TextTable table({"metric", "value"});
    table.addRow({"requests", std::to_string(s.total())});
    table.addRow({"write ratio", TextTable::pct(s.writeRatio())});
    table.addRow({"unique write values",
                  TextTable::pct(s.uniqueWriteValueFraction())});
    table.addRow({"unique read values",
                  TextTable::pct(s.uniqueReadValueFraction())});
    table.addRow({"distinct LPNs", std::to_string(s.distinctLpns)});
    table.addRow({"value deaths", std::to_string(l.totalDeaths)});
    table.addRow({"value rebirths", std::to_string(l.totalRebirths)});
    table.addRow({"P(write reusable from garbage)",
                  TextTable::pct(l.reuseProbability())});
    table.addRow({"P(reusable after dedup)",
                  TextTable::pct(l.reuseProbabilityAfterDedup())});
    std::printf("%s", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Generate and characterize content traces");
    addExperimentKeys(args, {{"workload"}, {"day"},
                             {"requests", "100000"}, {"seed"}});
    args.addOption("out", "", "write the generated trace here");
    args.addOption("format", "text", "trace file format: text|binary");
    args.addOption("in", "",
                   "characterize this trace file instead of "
                   "generating one");
    args.parse(argc, argv);
    const ExperimentOptions opts = experimentOptions(args);
    const std::string format =
        args.getChoice("format", {"text", "binary"});

    if (const std::string in = args.getString("in"); !in.empty()) {
        TraceReader reader(in);
        characterize(reader.readAll(), in);
        return 0;
    }

    const WorkloadProfile profile = WorkloadProfile::preset(
        workloadFromString(args.getString("workload")), opts.day,
        opts.requests, opts.seed);
    const auto records = SyntheticTraceGenerator(profile).generateAll();
    characterize(records, profile.name);

    if (const std::string out = args.getString("out"); !out.empty()) {
        writeTraceFile(out,
                       format == "binary" ? TraceFormat::Binary
                                          : TraceFormat::Text,
                       records);
        std::printf("\nwrote %zu records to %s (%s)\n", records.size(),
                    out.c_str(), format.c_str());
    }
    return 0;
}

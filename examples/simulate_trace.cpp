/**
 * @file
 * Replay any trace — a file produced by trace_workbench (or an
 * external tool emitting the same format) or a generated preset —
 * through a chosen system and print the full result statistics.
 *
 * Every trace replays through the one admission pump, Ssd::run:
 * records are admitted as the simulated clock reaches them. External
 * block traces (FIU SRCMap blkio, MSR-Cambridge CSV, or a generic
 * "lba,size,op,ts" CSV) stream through the ingest path
 * (trace/adapters.hh): records are parsed, 4KB-split, fingerprinted
 * and admitted without ever being held in memory, so memory stays
 * bounded by the drive footprint even at 10-100M requests.
 *
 * The single run and every --grid cell take one ExperimentOptions,
 * filled from the shared key table (sim/experiment.hh), and run
 * through runSystemOnScannedTrace(), which builds the drive with
 * driveConfig() and writes telemetry like the figure benches do.
 *
 * Examples:
 *   ./simulate_trace --workload web --system dvp+dedup
 *   ./simulate_trace --trace-file /tmp/mail.trc --trace-format native \
 *       --no-compact --system ideal
 *   ./simulate_trace --trace-file mail.blkio --trace-format fiu \
 *       --trace-limit 1000000 --system dvp
 */

#include <chrono>
#include <cstdio>

#include "sim/grid.hh"
#include "trace/adapters.hh"
#include "trace/generator.hh"
#include "trace/multi_tenant.hh"
#include "trace/prefetch.hh"
#include "trace/summary.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Replay a content trace on a simulated SSD");
    args.addOption("trace-file", "",
                   "external block trace to stream-replay "
                   "(overrides --workload)");
    args.addOption("trace-format", "csv",
                   "external trace format: native | fiu | msr | csv");
    args.addOption("trace-limit", "0",
                   "replay at most this many 4KB records (0 = all)");
    args.addOption("trace-skip", "0",
                   "skip this many 4KB records before replaying");
    args.addOption("trace-stride", "1",
                   "replay every Nth 4KB record (downsampling)");
    args.addOption("version-period", "0",
                   "synthesized-content recurrence period for "
                   "hashless formats (0 = every write is fresh)");
    args.addFlag("no-compact",
                 "keep raw device LBAs instead of compacting to the "
                 "trace footprint");
    args.addFlag("msr-disk-tenants",
                 "route each source device (MSR DiskNumber) onto "
                 "its own tenant namespace");
    args.addFlag("no-summary",
                 "skip the value-distinct trace summary (saves "
                 "O(distinct values) memory on huge traces)");
    args.addOption("grid", "",
                   "scan-once parameter sweep over the external "
                   "trace, e.g. \"system=dvp,dedup;depth=1,32\" "
                   "(axes: system|depth|gc|pool)");
    args.addOption("spool-mem-mb", "512",
                   "grid spool memory budget in MB; larger traces "
                   "spill to a temporary binary file");
    args.addOption("system", "dvp",
                   "baseline|dvp|lru|lx|dedup|dvp+dedup|ideal");
    addExperimentKeys(args, {{"prefetch"}, {"jobs"}, {"workload"},
                             {"requests", "100000"}, {"seed"},
                             {"pool", "5000"}, {"op"}, {"queue-depth"},
                             {"wall-json"}, {"tenants"}, {"arbiter"},
                             {"dvp-scope"}, {"stats-interval"},
                             {"stats-csv"}, {"stats-json"},
                             {"trace-out"}, {"span-limit"},
                             {"dump-stats"}});
    args.parse(argc, argv);

    const SystemKind system =
        systemKindFromString(args.getString("system"));
    const ExperimentOptions opts = experimentOptions(args);
    const std::string grid_text = args.getString("grid");
    if (!grid_text.empty())
        args.rejectGiven({"stats-interval", "stats-csv", "stats-json",
                          "trace-out", "dump-stats", "wall-json"},
                         "is a per-run output and --grid runs many "
                         "cells");

    const auto p99_us = [](const LatencyHistogram &h) {
        return static_cast<double>(h.percentile(0.99)) / 1000.0;
    };

    // Either path describes its trace as a ScannedTrace, so the run
    // goes through runSystemOnScannedTrace like a grid cell. An
    // external trace is scanned once (footprint, summary, compaction
    // map) and replayed through the same adapter chain; a generated
    // one is held in memory.
    ScannedTrace scan;
    std::string label;
    const std::string path = args.getString("trace-file");
    const bool external = !path.empty();
    if (external) {
        if (opts.tenants > 1)
            zombie_fatal("multi-tenant replay needs a generated "
                         "workload (namespace layout is not stored "
                         "in trace files); drop --trace-file");
        ExternalTraceConfig tcfg;
        tcfg.path = path;
        tcfg.format =
            externalFormatFromString(args.getString("trace-format"));
        tcfg.skip = args.getUint("trace-skip");
        tcfg.limit = args.getUint("trace-limit");
        tcfg.stride = args.getUint("trace-stride");
        tcfg.versionPeriod = static_cast<std::uint32_t>(args.getUint(
            "version-period", 0, std::numeric_limits<std::uint32_t>::max()));
        tcfg.compact = !args.getFlag("no-compact");
        tcfg.deviceTenants = args.getFlag("msr-disk-tenants");
        tcfg.summarize = !args.getFlag("no-summary");
        scan = scanExternalTrace(tcfg);
        if (scan.records == 0)
            zombie_fatal("trace is empty: ", path);
        label = path + " (" + toString(tcfg.format) + ")";
    } else {
        const WorkloadProfile profile = WorkloadProfile::preset(
            workloadFromString(args.getString("workload")), 1,
            opts.requests, opts.seed);
        std::vector<TraceRecord> records;
        if (opts.tenants > 1) {
            MultiTenantTraceGenerator gen(
                splitProfileAcrossTenants(profile, opts.tenants));
            records = gen.generateAll();
            scan.tenantPages = gen.allNamespacePages();
            label = profile.name + " x" + std::to_string(opts.tenants);
        } else {
            records = SyntheticTraceGenerator(profile).generateAll();
            label = profile.name;
        }
        if (records.empty())
            zombie_fatal("trace is empty");
        scan.records = records.size();
        scan.summary = summarizeTrace(records);
        for (const auto &rec : records)
            scan.footprintPages =
                std::max<std::uint64_t>(scan.footprintPages, rec.lpn + 1);
        const auto shared =
            std::make_shared<const std::vector<TraceRecord>>(
                std::move(records));
        scan.factory = [shared]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<VectorSource>(shared);
        };
    }
    // Scan-once grid sweep: spool the post-adapter stream once and
    // fan the cells across worker threads; each cell's output is
    // byte-identical to a standalone run of that configuration.
    if (!grid_text.empty()) {
        if (!external)
            zombie_fatal("--grid sweeps an external trace; it needs "
                         "--trace-file");
        const GridSpec spec = parseGridSpec(grid_text);

        std::printf("%s", sectionBanner("grid sweep over " + label)
                              .c_str());
        std::printf("%llu cells, %llu records\n",
                    static_cast<unsigned long long>(spec.cells()),
                    static_cast<unsigned long long>(scan.records));

        const auto wall_start = std::chrono::steady_clock::now();
        const auto cells = runGridOnScannedTrace(
            scan, spec, system, opts,
            ThreadPool::resolveJobs(args.getUint("jobs")),
            args.getUint("spool-mem-mb") << 20);
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();

        for (const auto &cell : cells) {
            std::printf("%s", sectionBanner("cell: " + cell.label)
                                  .c_str());
            std::printf("%s",
                        cell.result.toStatSet().format().c_str());
        }
        std::printf("%s", sectionBanner("grid summary").c_str());
        TextTable table({"cell", "requests", "rd_p99_us",
                         "wr_p99_us", "gc_relocs", "revivals"});
        for (const auto &cell : cells) {
            table.addRow(
                {cell.label, std::to_string(cell.result.requests),
                 TextTable::num(p99_us(cell.result.readLatency)),
                 TextTable::num(p99_us(cell.result.writeLatency)),
                 std::to_string(cell.result.gcRelocations),
                 std::to_string(cell.result.revivals)});
        }
        std::printf("%s", table.render().c_str());
        std::printf("grid wall: %.3f s (%llu cells)\n", wall_s,
                    static_cast<unsigned long long>(cells.size()));
        return 0;
    }

    std::printf("%s", sectionBanner("replaying " + label + " on " +
                                    toString(system)).c_str());
    std::printf("%s\n", driveConfig(scan.footprintPages, system, opts,
                                    scan.tenantPages)
                            .describe()
                            .c_str());
    std::printf("trace: %llu requests, WR %s, unique write values "
                "%s\n\n",
                static_cast<unsigned long long>(scan.summary.total()),
                TextTable::pct(scan.summary.writeRatio()).c_str(),
                TextTable::pct(scan.summary.uniqueWriteValueFraction())
                    .c_str());

    const auto wall_start = std::chrono::steady_clock::now();
    const SimResult result = runSystemOnScannedTrace(scan, system, opts);
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    std::printf("%s", result.toStatSet().format().c_str());

    if (result.tenants > 1) {
        std::printf("\nper-tenant summary\n");
        TextTable table({"tenant", "submitted", "reads", "writes",
                         "blocked", "wait_us", "rd_p99_us",
                         "wr_p99_us", "gc_ms"});
        for (std::size_t t = 0; t < result.tenantResults.size();
             ++t) {
            const TenantResult &tr = result.tenantResults[t];
            const double wait_us =
                tr.submitted ? static_cast<double>(tr.admissionWait) /
                                   (1000.0 * static_cast<double>(
                                                 tr.submitted))
                             : 0.0;
            table.addRow(
                {std::to_string(t), std::to_string(tr.submitted),
                 std::to_string(tr.reads), std::to_string(tr.writes),
                 std::to_string(tr.blockedAdmissions),
                 TextTable::num(wait_us),
                 TextTable::num(p99_us(tr.readLatency)),
                 TextTable::num(p99_us(tr.writeLatency)),
                 TextTable::num(static_cast<double>(
                                    tr.gcCollateralTicks) /
                                1e6)});
        }
        std::printf("%s", table.render().c_str());
    }

    // Wall-clock/throughput record of the run (host time only).
    if (const std::string path = args.getString("wall-json");
        !path.empty()) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            zombie_fatal("cannot write wall-clock output: ", path);
        std::fprintf(
            f,
            "{\n"
            "  \"trace\": \"%s\",\n"
            "  \"requests\": %llu,\n"
            "  \"wall_s\": %.3f,\n"
            "  \"reqs_per_s\": %.1f,\n"
            "  \"events\": %llu,\n"
            "  \"events_per_s\": %.1f\n"
            "}\n",
            label.c_str(),
            static_cast<unsigned long long>(result.requests), wall_s,
            wall_s > 0.0 ? static_cast<double>(result.requests) /
                               wall_s
                         : 0.0,
            static_cast<unsigned long long>(result.events),
            wall_s > 0.0 ? static_cast<double>(result.events) /
                               wall_s
                         : 0.0);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}

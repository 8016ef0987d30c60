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
 * Examples:
 *   ./simulate_trace --workload web --system dvp+dedup
 *   ./simulate_trace --trace /tmp/mail.trc --system ideal
 *   ./simulate_trace --trace-file mail.blkio --trace-format fiu \
 *       --trace-limit 1000000 --system dvp
 */

#include <chrono>
#include <cstdio>
#include <fstream>

#include "sim/grid.hh"
#include "sim/ssd.hh"
#include "trace/adapters.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/multi_tenant.hh"
#include "trace/prefetch.hh"
#include "trace/summary.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace zombie;

int
main(int argc, char **argv)
{
    ArgParser args("Replay a content trace on a simulated SSD");
    args.addOption("trace", "", "trace file to replay (overrides "
                                "--workload)");
    args.addOption("trace-file", "",
                   "external block trace to stream-replay "
                   "(overrides --trace and --workload)");
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
    args.addOption("prefetch", "4096",
                   "decode-ahead batch size for streamed replay: "
                   "the parse/adapter chain runs on a producer "
                   "thread handing over batches of this many "
                   "records");
    args.addFlag("no-prefetch",
                 "pull the parse/adapter chain inline on the "
                 "simulation thread (byte-identical to the "
                 "prefetched default)");
    args.addOption("grid", "",
                   "scan-once parameter sweep over the external "
                   "trace, e.g. \"system=dvp,dedup;depth=1,32\" "
                   "(axes: system|depth|gc|pool)");
    args.addOption("jobs", "1",
                   "grid cells to run concurrently (0 = one per "
                   "hardware thread)");
    args.addOption("spool-mem-mb", "512",
                   "grid spool memory budget in MB; larger traces "
                   "spill to a temporary binary file");
    args.addOption("workload", "mail", "preset workload to generate");
    args.addOption("requests", "100000", "generated trace length");
    args.addOption("seed", "42", "generator seed");
    args.addOption("system", "dvp",
                   "baseline|dvp|lru|lx|dedup|dvp+dedup|ideal");
    args.addOption("pool", "5000", "dead-value pool entries");
    args.addOption("op", "0.15", "over-provisioning fraction");
    args.addOption("queue-depth", "1",
                   "host-interface queue depth (NCQ dispatch "
                   "contexts)");
    args.addOption("wall-json", "",
                   "write wall-clock/throughput JSON (requests/s, "
                   "events, events/s)");
    args.addOption("tenants", "1",
                   "tenant count; >1 splits a generated workload "
                   "into per-namespace streams");
    args.addOption("arbiter", "rr",
                   "submission-queue arbiter: rr | wrr:<w0,w1,..>");
    args.addOption("dvp-scope", "shared",
                   "dead-value pool tenancy: shared | partitioned");
    args.addOption("stats-interval", "0",
                   "epoch-sampler interval in simulated microseconds "
                   "(0 = off)");
    args.addOption("stats-csv", "", "epoch time-series CSV output");
    args.addOption("stats-json", "", "epoch time-series JSON output");
    args.addOption("trace-out", "",
                   "Perfetto trace_event JSON of flash-op spans");
    args.addOption("span-limit", "1000000",
                   "maximum spans kept in the op trace");
    args.addOption("dump-stats", "",
                   "end-of-run stat-registry dump output");
    args.parse(argc, argv);

    const SystemKind system =
        systemKindFromString(args.getString("system"));
    const auto tenants =
        static_cast<std::uint32_t>(args.getUint("tenants"));

    std::vector<TraceRecord> records;
    std::vector<std::uint64_t> namespace_pages;
    std::string label;

    // External-trace streaming path: scan once (footprint + summary
    // + compaction map), then replay through the same adapter chain.
    ScannedTrace scan;
    bool external = false;
    if (const std::string path = args.getString("trace-file");
        !path.empty()) {
        if (tenants > 1)
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
        tcfg.versionPeriod = static_cast<std::uint32_t>(
            args.getUint("version-period"));
        tcfg.compact = !args.getFlag("no-compact");
        tcfg.deviceTenants = args.getFlag("msr-disk-tenants");
        tcfg.summarize = !args.getFlag("no-summary");
        scan = scanExternalTrace(tcfg);
        if (scan.records == 0)
            zombie_fatal("trace is empty: ", path);
        label = path + " (" + toString(tcfg.format) + ")";
        external = true;
    } else if (const std::string native = args.getString("trace");
               !native.empty()) {
        if (tenants > 1)
            zombie_fatal("multi-tenant replay needs a generated "
                         "workload (namespace layout is not stored "
                         "in trace files); drop --trace");
        records = TraceReader(native).readAll();
        label = native;
    } else {
        const WorkloadProfile profile = WorkloadProfile::preset(
            workloadFromString(args.getString("workload")), 1,
            args.getUint("requests"), args.getUint("seed"));
        if (tenants > 1) {
            MultiTenantTraceGenerator gen(
                splitProfileAcrossTenants(profile, tenants));
            records = gen.generateAll();
            namespace_pages = gen.allNamespacePages();
            label = profile.name + " x" + std::to_string(tenants);
        } else {
            records = SyntheticTraceGenerator(profile).generateAll();
            label = profile.name;
        }
    }
    // Scan-once grid sweep: spool the post-adapter stream once and
    // fan the cells across worker threads; each cell's output is
    // byte-identical to a standalone run of that configuration.
    if (const std::string grid_text = args.getString("grid");
        !grid_text.empty()) {
        if (!external)
            zombie_fatal("--grid sweeps an external trace; it needs "
                         "--trace-file");
        const GridSpec spec = parseGridSpec(grid_text);
        ExperimentOptions gopts;
        gopts.poolCapacity = args.getUint("pool");
        gopts.queueDepth =
            static_cast<std::uint32_t>(args.getUint("queue-depth"));
        gopts.arbiter = args.getString("arbiter");
        gopts.dvpScope = args.getString("dvp-scope");
        gopts.prefetchBatch =
            args.getFlag("no-prefetch") ? 0 : args.getUint("prefetch");

        std::printf("%s", sectionBanner("grid sweep over " + label)
                              .c_str());
        std::printf("%llu cells, %llu records\n",
                    static_cast<unsigned long long>(spec.cells()),
                    static_cast<unsigned long long>(scan.records));

        const auto wall_start = std::chrono::steady_clock::now();
        const auto cells = runGridOnScannedTrace(
            scan, spec, system, gopts,
            static_cast<unsigned>(args.getUint("jobs")),
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
            const auto p99_us = [](const LatencyHistogram &h) {
                return static_cast<double>(h.percentile(0.99)) /
                       1000.0;
            };
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

    if (!external && records.empty())
        zombie_fatal("trace is empty");

    // Size the drive from the trace's address footprint.
    TraceSummary summary;
    Lpn footprint = 0;
    if (external) {
        summary = scan.summary;
        footprint = scan.footprintPages;
    } else {
        summary = summarizeTrace(records);
        Lpn max_lpn = 0;
        for (const auto &rec : records)
            max_lpn = std::max(max_lpn, rec.lpn);
        footprint = max_lpn + 1;
    }

    SsdConfig cfg = SsdConfig::forFootprint(footprint, system,
                                            args.getDouble("op"));
    cfg.mq.capacity = args.getUint("pool");
    cfg.queueDepth =
        static_cast<std::uint32_t>(args.getUint("queue-depth"));
    cfg.tenants = tenants;
    if (scan.tenantPages.size() > 1) {
        // --msr-disk-tenants: the scan routed devices onto tenant
        // namespaces and laid them out contiguously.
        cfg.tenants =
            static_cast<std::uint32_t>(scan.tenantPages.size());
        namespace_pages = scan.tenantPages;
    }
    const ArbiterSpec arb = parseArbiterSpec(args.getString("arbiter"));
    cfg.arbiter = arb.kind;
    cfg.arbiterWeights = arb.weights;
    cfg.dvpScope = dvpScopeFromString(args.getString("dvp-scope"));
    cfg.namespacePages = namespace_pages;
    cfg.statsInterval = ticksFromUs(args.getDouble("stats-interval"));
    cfg.opTrace = !args.getString("trace-out").empty();
    cfg.traceLimit = args.getUint("span-limit");

    std::printf("%s", sectionBanner("replaying " + label + " on " +
                                    toString(system)).c_str());
    std::printf("%s\n", cfg.describe().c_str());
    std::printf("trace: %llu requests, WR %s, unique write values "
                "%s\n\n",
                static_cast<unsigned long long>(summary.total()),
                TextTable::pct(summary.writeRatio()).c_str(),
                TextTable::pct(summary.uniqueWriteValueFraction())
                    .c_str());

    Ssd ssd(cfg);
    const auto wall_start = std::chrono::steady_clock::now();
    std::unique_ptr<TraceSource> src;
    if (external) {
        const std::size_t prefetch_batch =
            args.getFlag("no-prefetch")
                ? 0
                : static_cast<std::size_t>(args.getUint("prefetch"));
        src = maybePrefetch(scan.factory(), prefetch_batch);
    } else {
        src = std::make_unique<VectorSource>(std::move(records));
    }
    ssd.run(*src);
    const SimResult result = ssd.result();
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
            const auto p99_us = [](const LatencyHistogram &h) {
                return static_cast<double>(h.percentile(0.99)) /
                       1000.0;
            };
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

    // Telemetry artifacts, written after the run so every counter and
    // the final partial epoch are settled.
    auto write_to = [](const std::string &path, auto &&writer) {
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os)
            zombie_fatal("cannot write telemetry output: ", path);
        writer(os);
        std::printf("wrote %s\n", path.c_str());
    };
    if ((!args.getString("stats-csv").empty() ||
         !args.getString("stats-json").empty()) &&
        !ssd.sampler())
        zombie_fatal("epoch series requested without "
                     "--stats-interval");
    write_to(args.getString("stats-csv"), [&ssd](std::ostream &os) {
        ssd.sampler()->writeCsv(os);
    });
    write_to(args.getString("stats-json"), [&ssd](std::ostream &os) {
        ssd.sampler()->writeJson(os);
    });
    write_to(args.getString("trace-out"), [&ssd](std::ostream &os) {
        ssd.tracer()->writeJson(os);
    });
    write_to(args.getString("dump-stats"), [&ssd](std::ostream &os) {
        ssd.statRegistry().dump(os);
    });
    // Wall-clock/throughput record of the run (host time only).
    write_to(args.getString("wall-json"), [&](std::ostream &os) {
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
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
        os << buf;
    });
    return 0;
}

/**
 * @file
 * Shared runner for the full-simulation benches (Figures 9-12/14/15).
 *
 * Pool sizes: the paper sweeps 100K-300K entries against day-long
 * traces of millions of requests. At bench scale the pool is sized
 * as a fraction of the trace length so the same capacity-pressure
 * regime is reproduced; --pool-frac adjusts it.
 */

#ifndef ZOMBIE_BENCH_SIM_BENCH_HH
#define ZOMBIE_BENCH_SIM_BENCH_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/experiment.hh"
#include "util/alloc_counter.hh"
#include "util/csv.hh"
#include "util/thread_pool.hh"

namespace zombie::bench
{

/** Paper-equivalent pool size: fraction of the trace length. */
inline std::uint64_t
scaledPool(std::uint64_t requests, double frac)
{
    return std::max<std::uint64_t>(
        256,
        static_cast<std::uint64_t>(frac *
                                   static_cast<double>(requests)));
}

/** The fraction standing in for the paper's 200K-entry default. */
inline constexpr double kDefaultPoolFrac = 0.02;

/** ExperimentOptions filled from the standardArgs() options. */
inline ExperimentOptions
standardOptions(const ArgParser &args)
{
    ExperimentOptions opts;
    opts.requests = args.getUint("requests");
    opts.seed = args.getUint("seed");
    opts.poolCapacity =
        scaledPool(opts.requests, args.getDouble("pool-frac"));
    opts.queueDepth =
        static_cast<std::uint32_t>(args.getUint("queue-depth"));
    opts.statsInterval = ticksFromUs(args.getDouble("stats-interval"));
    opts.traceLimit = args.getUint("span-limit");
    opts.statsCsv = args.getString("stats-csv");
    opts.statsJson = args.getString("stats-json");
    opts.traceOut = args.getString("trace-out");
    opts.statsDump = args.getString("dump-stats");
    return opts;
}

/**
 * Telemetry outputs are per cell: tag a base path with the cell's
 * workload and system label, keeping the extension ("stats.csv" ->
 * "stats-mail-dvp.csv") so a whole bench sweep writes distinct files.
 */
inline std::string
cellTelemetryPath(const std::string &base, const std::string &workload,
                  const std::string &label)
{
    if (base.empty())
        return base;
    const std::string tag = "-" + workload + "-" + label;
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + tag;
    return base.substr(0, dot) + tag + base.substr(dot);
}

/** Rewrite every telemetry output path in @p opts for one cell. */
inline void
tagCellTelemetry(ExperimentOptions &opts, Workload workload,
                 const std::string &label)
{
    const std::string w = toString(workload);
    opts.statsCsv = cellTelemetryPath(opts.statsCsv, w, label);
    opts.statsJson = cellTelemetryPath(opts.statsJson, w, label);
    opts.traceOut = cellTelemetryPath(opts.traceOut, w, label);
    opts.statsDump = cellTelemetryPath(opts.statsDump, w, label);
}

/** Results for one workload across several systems. */
struct WorkloadRow
{
    Workload workload;
    SimResult baseline;
    std::map<std::string, SimResult> systems;

    /**
     * Wall-clock side channel: host seconds each cell took, keyed by
     * system label ("baseline" included). Never feeds back into any
     * simulated-time number — it exists purely so the harness can
     * report its own requests/sec (DESIGN.md section 7.9).
     */
    std::map<std::string, double> wallSeconds;

    /**
     * Heap allocations (operator-new calls) observed during each
     * cell, keyed like wallSeconds. The counter is process-wide, so
     * with --jobs > 1 concurrent cells bleed into each other's
     * deltas; the number is exact only at --jobs 1. Side channel
     * only — never feeds back into simulated time.
     */
    std::map<std::string, std::uint64_t> heapAllocs;
};

/**
 * Run @p labels (label -> (system, options tweak)) over all six
 * workloads with @p jobs cells in flight, assembling the rows in
 * fixed (workload, label) order. Every cell is an independent,
 * seed-deterministic simulation, so the tables and CSV output are
 * byte-identical for any jobs value; only the per-cell wall clock
 * (a side channel) varies run to run.
 */
template <typename ConfigureFn>
std::vector<WorkloadRow>
runAcrossWorkloadsParallel(const std::vector<std::string> &labels,
                           ConfigureFn &&configure,
                           const ExperimentOptions &base_opts,
                           unsigned jobs)
{
    struct Cell
    {
        Workload workload;
        std::string label;
        SystemKind kind;
        ExperimentOptions opts;
    };
    std::vector<Cell> cells;
    for (const Workload w : allWorkloads()) {
        ExperimentOptions base_cell = base_opts;
        tagCellTelemetry(base_cell, w, "baseline");
        cells.push_back({w, "baseline", SystemKind::Baseline,
                         std::move(base_cell)});
        for (const std::string &label : labels) {
            ExperimentOptions opts = base_opts;
            const SystemKind kind = configure(label, opts);
            tagCellTelemetry(opts, w, label);
            cells.push_back({w, label, kind, std::move(opts)});
        }
    }

    std::fprintf(stderr, "  running %zu cells, %u at a time...\n",
                 cells.size(), jobs);
    struct CellResult
    {
        SimResult result;
        double wallSeconds;
        std::uint64_t heapAllocs;
    };
    auto results =
        parallelMap(jobs, cells.size(), [&cells](std::size_t i) {
            const Cell &cell = cells[i];
            std::fprintf(stderr, "  running %-8s %s...\n",
                         toString(cell.workload).c_str(),
                         cell.label.c_str());
            const std::uint64_t allocs0 = heapAllocCount();
            const auto start = std::chrono::steady_clock::now();
            SimResult r =
                runSystem(cell.workload, cell.kind, cell.opts);
            const std::chrono::duration<double> wall =
                std::chrono::steady_clock::now() - start;
            return CellResult{std::move(r), wall.count(),
                              heapAllocCount() - allocs0};
        });

    std::vector<WorkloadRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].label == "baseline") {
            rows.emplace_back();
            rows.back().workload = cells[i].workload;
            rows.back().baseline = std::move(results[i].result);
        } else {
            rows.back().systems.emplace(
                cells[i].label, std::move(results[i].result));
        }
        rows.back().wallSeconds.emplace(cells[i].label,
                                        results[i].wallSeconds);
        rows.back().heapAllocs.emplace(cells[i].label,
                                       results[i].heapAllocs);
    }
    return rows;
}

/** Serial convenience wrapper (historical entry point). */
template <typename ConfigureFn>
std::vector<WorkloadRow>
runAcrossWorkloads(const std::vector<std::string> &labels,
                   ConfigureFn &&configure,
                   const ExperimentOptions &base_opts)
{
    return runAcrossWorkloadsParallel(
        labels, std::forward<ConfigureFn>(configure), base_opts, 1);
}

/**
 * Write one CSV row per workload x system with the core metrics.
 * Cell order and formatting are part of the byte-identity contract
 * pinned by tests/sim/test_parallel_harness.cc.
 */
inline void
writeCsvRows(const std::string &path,
             const std::vector<WorkloadRow> &rows)
{
    CsvWriter csv(path,
                  {"workload", "system", "flash_programs",
                   "flash_erases", "mean_latency_us", "p99_latency_us",
                   "dvp_revivals", "dedup_hits"});
    auto emit = [&csv](Workload w, const SimResult &r) {
        csv.addRow({toString(w), r.system,
                    std::to_string(r.flashPrograms),
                    std::to_string(r.flashErases),
                    std::to_string(r.allLatency.mean() / 1e3),
                    std::to_string(
                        static_cast<double>(
                            r.allLatency.percentile(0.99)) / 1e3),
                    std::to_string(r.dvpRevivals),
                    std::to_string(r.dedupHits)});
    };
    for (const auto &row : rows) {
        emit(row.workload, row.baseline);
        for (const auto &[label, result] : row.systems)
            emit(row.workload, result);
    }
}

/**
 * Optional CSV export: when --csv was given, write one row per
 * workload x system with the core metrics, for plotting.
 */
inline void
maybeWriteCsv(const ArgParser &args,
              const std::vector<WorkloadRow> &rows)
{
    const std::string path = args.getString("csv");
    if (path.empty())
        return;
    writeCsvRows(path, rows);
    std::printf("\nwrote CSV to %s\n", path.c_str());
}

/**
 * Wall-clock side channel, printed to stderr so the simulated-time
 * tables on stdout stay byte-identical across runs and --jobs
 * values: per-cell host wall time and simulated requests/sec.
 */
inline void
reportWallClock(const std::vector<WorkloadRow> &rows, unsigned jobs)
{
    std::fprintf(stderr,
                 "\nwall-clock side channel (host time, jobs=%u; "
                 "simulated-time results above are unaffected):\n",
                 jobs);
    double total = 0.0;
    auto emit = [&total](Workload w, const std::string &label,
                         const SimResult &r, double seconds) {
        const double rate =
            seconds > 0.0 ? static_cast<double>(r.requests) / seconds
                          : 0.0;
        const double erate =
            seconds > 0.0 ? static_cast<double>(r.events) / seconds
                          : 0.0;
        std::fprintf(stderr,
                     "  %-8s %-10s %8.2f s %12.0f req/s "
                     "%12.0f ev/s\n",
                     toString(w).c_str(), label.c_str(), seconds,
                     rate, erate);
        total += seconds;
    };
    for (const auto &row : rows) {
        emit(row.workload, "baseline", row.baseline,
             row.wallSeconds.at("baseline"));
        for (const auto &[label, result] : row.systems)
            emit(row.workload, label, result,
                 row.wallSeconds.at(label));
    }
    std::fprintf(stderr, "  %-8s %-10s %8.2f s (sum of cells)\n", "",
                 "total", total);
}

/**
 * Optional --wall-json export: one record per cell with wall
 * seconds, requests/sec, engine events/sec and the heap-allocation
 * count (exact at --jobs 1; see WorkloadRow::heapAllocs for the
 * concurrency caveat).
 */
inline void
maybeWriteWallJson(const ArgParser &args,
                   const std::vector<WorkloadRow> &rows,
                   unsigned jobs)
{
    const std::string path = args.getString("wall-json");
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write wall-json %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"jobs\": %u,\n"
                    "  \"cells\": [\n",
                 args.programName().c_str(), jobs);
    bool first = true;
    auto emit = [f, &first](Workload w, const std::string &label,
                            const SimResult &r, double seconds,
                            std::uint64_t allocs) {
        const double rate =
            seconds > 0.0 ? static_cast<double>(r.requests) / seconds
                          : 0.0;
        const double erate =
            seconds > 0.0 ? static_cast<double>(r.events) / seconds
                          : 0.0;
        std::fprintf(f,
                     "%s    {\"workload\": \"%s\", \"system\": "
                     "\"%s\", \"wall_s\": %.6f, \"requests\": %llu, "
                     "\"reqs_per_s\": %.1f, \"events\": %llu, "
                     "\"events_per_s\": %.1f, "
                     "\"heap_allocs\": %llu, "
                     "\"p99_9_us\": %.3f, \"max_us\": %.3f}",
                     first ? "" : ",\n", toString(w).c_str(),
                     label.c_str(), seconds,
                     static_cast<unsigned long long>(r.requests),
                     rate,
                     static_cast<unsigned long long>(r.events),
                     erate,
                     static_cast<unsigned long long>(allocs),
                     static_cast<double>(
                         r.allLatency.percentile(0.999)) / 1e3,
                     static_cast<double>(
                         r.allLatency.maxValue()) / 1e3);
        first = false;
    };
    for (const auto &row : rows) {
        emit(row.workload, "baseline", row.baseline,
             row.wallSeconds.at("baseline"),
             row.heapAllocs.at("baseline"));
        for (const auto &[label, result] : row.systems)
            emit(row.workload, label, result,
                 row.wallSeconds.at(label),
                 row.heapAllocs.at(label));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote wall-clock JSON to %s\n",
                 path.c_str());
}

/** Mean of a column of improvement fractions. */
inline double
meanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace zombie::bench

#endif // ZOMBIE_BENCH_SIM_BENCH_HH

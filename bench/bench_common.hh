/**
 * @file
 * Shared scaffolding for the figure-reproduction benches.
 *
 * Every bench prints: a banner naming the paper artifact it
 * regenerates, the modeled-SSD description (Table I at simulation
 * scale), the measured series as an ASCII table, and a "paper shape"
 * note stating what qualitative result the series should show.
 */

#ifndef ZOMBIE_BENCH_COMMON_HH
#define ZOMBIE_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "util/args.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace zombie::bench
{

/** Print the standard bench banner. */
inline void
banner(const std::string &artifact, const std::string &what)
{
    std::printf("%s", sectionBanner(artifact + " - " + what).c_str());
}

/** Print the expected qualitative result quoted from the paper. */
inline void
paperShape(const std::string &note)
{
    std::printf("\npaper shape: %s\n", note.c_str());
}

/** ArgParser preloaded with the options every bench shares. */
inline ArgParser
standardArgs(const std::string &description,
             const std::string &default_requests)
{
    ArgParser args(description);
    args.addOption("requests", default_requests,
                   "requests per generated trace");
    args.addOption("seed", "42", "trace generator seed");
    args.addOption("pool-frac", "0.02",
                   "dead-value pool entries as a fraction of the "
                   "trace length (0.02 ~ the paper's 200K entries "
                   "at day-trace scale)");
    args.addOption("queue-depth", "1",
                   "host-interface queue depth (NCQ-style dispatch "
                   "contexts; 1 reproduces the classic serialized "
                   "dispatcher)");
    args.addOption("csv", "", "also write the series to this CSV file");
    args.addOption("jobs", "1",
                   "experiment cells to run concurrently (0 = one "
                   "per hardware thread); results are byte-identical "
                   "for any value");
    args.addOption("wall-json", "",
                   "also write the wall-clock side channel (per-cell "
                   "wall time and requests/sec) to this JSON file");
    args.addOption("stats-interval", "0",
                   "epoch-sampler interval in simulated microseconds "
                   "(0 = telemetry sampling off)");
    args.addOption("stats-csv", "",
                   "write each cell's epoch time-series to this CSV "
                   "path (cell tag inserted before the extension)");
    args.addOption("stats-json", "",
                   "write each cell's epoch time-series to this JSON "
                   "path (cell tag inserted before the extension)");
    args.addOption("trace-out", "",
                   "record flash-op spans and write a Perfetto "
                   "trace_event JSON per cell to this path");
    args.addOption("span-limit", "1000000",
                   "maximum spans kept per cell trace");
    args.addOption("dump-stats", "",
                   "write each cell's end-of-run stat-registry dump "
                   "to this path (cell tag inserted)");
    return args;
}

/** The --jobs request resolved to a worker count. */
inline unsigned
benchJobs(const ArgParser &args)
{
    return ThreadPool::resolveJobs(args.getUint("jobs"));
}

} // namespace zombie::bench

#endif // ZOMBIE_BENCH_COMMON_HH

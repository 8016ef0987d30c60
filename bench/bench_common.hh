/**
 * @file
 * Shared scaffolding for the figure-reproduction benches.
 *
 * Every bench prints: a banner naming the paper artifact it
 * regenerates, the modeled-SSD description (Table I at simulation
 * scale), the measured series as an ASCII table, and a "paper shape"
 * note stating what qualitative result the series should show.
 *
 * Each bench registers only the experiment keys it reads
 * (sim/experiment.hh), so its --help lists no flag it would ignore.
 */

#ifndef ZOMBIE_BENCH_COMMON_HH
#define ZOMBIE_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
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

/** The --jobs request resolved to a worker count. */
inline unsigned
benchJobs(const ArgParser &args)
{
    return ThreadPool::resolveJobs(args.getUint("jobs"));
}

} // namespace zombie::bench

#endif // ZOMBIE_BENCH_COMMON_HH

/**
 * @file
 * Experiment runner: generate a workload trace, simulate it on one or
 * more systems, and compare against the Baseline — the shape every
 * evaluation figure (9-12, 14, 15) follows.
 *
 * Every key an experiment program shares — a flag such as
 * --queue-depth, a --grid axis such as depth= — is one row of the
 * key table in experiment.cc: name, default, help and a strict parse
 * into its ExperimentOptions field (DESIGN.md section 7.18).
 */

#ifndef ZOMBIE_SIM_EXPERIMENT_HH
#define ZOMBIE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "sim/ssd.hh"
#include "trace/adapters.hh"
#include "trace/profile.hh"
#include "util/args.hh"

namespace zombie
{

/** Shared knobs for one experiment run. */
struct ExperimentOptions
{
    std::uint64_t requests = 300'000;
    std::uint64_t seed = 42;
    int day = 1;

    /** Pool entries for DVP/LRU/LX systems. */
    std::uint64_t poolCapacity = 200'000;

    /** "auto" | "greedy" | "popularity". */
    std::string gcPolicy = "auto";

    /** Host-interface queue depth (SsdConfig::queueDepth). */
    std::uint32_t queueDepth = 1;

    /** Over-provisioning fraction the drive is sized with. */
    double op = 0.15;

    /**
     * Multi-tenant frontend. tenants > 1 splits the workload into
     * that many per-tenant streams (equal request shares, distinct
     * seeds) merged deterministically by arrival; 1 — the default —
     * keeps the historical single-stream path byte-identical.
     */
    std::uint32_t tenants = 1;

    /** Arbiter spec: "rr" or "wrr:<w0,w1,..>" (sim/arbiter.hh). */
    std::string arbiter = "rr";

    /**
     * Decode-ahead batch size for streamed trace replay
     * (trace/prefetch.hh): the parse/adapter chain runs on a
     * producer thread handing the engine batches of this many
     * records. 0 pulls inline on the simulation thread (the
     * differential-testing reference). Either way the record stream
     * is byte-identical — the prefetch ring preserves order exactly.
     */
    std::uint64_t prefetchBatch = 4096;

    /** Dead-value pool tenancy: "shared" | "partitioned". */
    std::string dvpScope = "shared";

    /**
     * Telemetry (src/telemetry): all off by default, so standard
     * experiment runs stay byte-identical and allocation-free. The
     * epoch sampler runs when statsInterval > 0; the op trace records
     * when traceOut is non-empty. Output paths are written after the
     * run completes.
     */
    Tick statsInterval = 0;          //!< epoch length in ticks
    std::uint64_t traceLimit = 1'000'000; //!< spans kept in memory
    std::string statsCsv;            //!< epoch series as CSV
    std::string statsJson;           //!< epoch series as JSON
    std::string traceOut;            //!< Perfetto trace JSON
    std::string statsDump;           //!< end-of-run registry dump

    /** Optional hook to tweak the SsdConfig before construction. */
    std::function<void(SsdConfig &)> tweak;
};

/** One experiment key: a flag and, with an axis name, a grid axis. */
struct ExperimentKey
{
    const char *name; //!< flag name without the leading "--"
    const char *def;  //!< table-wide default; null = per program
    const char *help;
    const char *axis; //!< --grid axis name; null = not sweepable
    /**
     * Parse @p text strictly into this key's field: returns "" or a
     * message naming the bad value. Null for harness keys (--jobs,
     * --csv, --wall-json, --workload), which have no field.
     */
    std::string (*set)(ExperimentOptions &opts, std::string_view text);
};

/** Every key, in the order experimentOptions() applies them. */
std::span<const ExperimentKey> experimentKeys();

/** The row named @p name; panics when there is none. */
const ExperimentKey &experimentKey(std::string_view name);

/** A row to register; def only for rows without a table default. */
struct KeyUse
{
    const char *name;
    const char *def = nullptr;
};

/** Register the rows @p keys on @p args, in the listed order. */
void addExperimentKeys(ArgParser &args, std::initializer_list<KeyUse> keys);

/**
 * Options from every registered row that has a field, applied in
 * table order; fatal on a malformed value.
 */
ExperimentOptions experimentOptions(const ArgParser &args);

/** Paper-equivalent pool size: fraction of the trace length. */
std::uint64_t scaledPool(std::uint64_t requests, double frac);

/**
 * The drive every entry point builds for a trace of
 * @p footprint_pages: sized at opts.op, the option knobs applied,
 * @p namespace_pages laid out when they name several tenants, then
 * opts.tweak.
 */
SsdConfig driveConfig(std::uint64_t footprint_pages, SystemKind system,
                      const ExperimentOptions &opts,
                      const std::vector<std::uint64_t> &namespace_pages =
                          {});

/** Write the telemetry @p opts asks for once @p ssd has drained. */
void writeTelemetry(Ssd &ssd, const ExperimentOptions &opts);

/** Simulate @p system on the given workload; trace is regenerated
 *  deterministically from (workload, day, requests, seed) so every
 *  system sees the identical request stream. */
SimResult runSystem(Workload workload, SystemKind system,
                    const ExperimentOptions &opts = {});

/** Same, from an explicit profile. opts.tenants > 1 splits the
 *  profile into per-tenant streams (see splitProfileAcrossTenants)
 *  before simulating. */
SimResult runSystemOnProfile(const WorkloadProfile &profile,
                             SystemKind system,
                             const ExperimentOptions &opts = {});

/**
 * Replay a scanned external trace (trace/adapters.hh) on @p system,
 * sizing the drive from the scan's footprint. Records stream
 * through the admission pump (Ssd::run), so memory stays bounded at
 * 10-100M requests.
 */
SimResult runSystemOnScannedTrace(const ScannedTrace &scan,
                                  SystemKind system,
                                  const ExperimentOptions &opts = {});

/**
 * Simulate one drive shared by explicitly-profiled tenants (one
 * namespace per profile, in order). The QoS-scenario entry point:
 * each tenant brings its own workload shape, and opts.arbiter /
 * opts.dvpScope pick the isolation mechanisms. opts.tenants is
 * ignored — the profile list defines the tenant count.
 */
SimResult runTenantProfiles(const std::vector<WorkloadProfile> &profiles,
                            SystemKind system,
                            const ExperimentOptions &opts = {});

/** Baseline + the listed systems over one workload. */
struct Comparison
{
    SimResult baseline;
    std::vector<SimResult> systems;
};

Comparison compareSystems(Workload workload,
                          const std::vector<SystemKind> &systems,
                          const ExperimentOptions &opts = {});

} // namespace zombie

#endif // ZOMBIE_SIM_EXPERIMENT_HH

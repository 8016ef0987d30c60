/**
 * @file
 * Simulated-system configuration (paper Table I + section V).
 *
 * SystemKind enumerates the studied systems: Baseline, the proposed
 * MQ dead-value pool, the LRU strawman, LX-SSD prior work, the Dedup
 * baseline, DVP-on-Dedup, and the infinite-pool Ideal.
 *
 * Geometry scaling: the paper models a 1TB drive; at simulation scale
 * the channel/chip structure (8x8) and all Table I latencies are kept
 * while dies/planes/blocks-per-plane shrink so that the physical
 * capacity is the trace footprint plus 15% over-provisioning — the
 * utilization ratio, not absolute capacity, is what drives GC.
 */

#ifndef ZOMBIE_SIM_CONFIG_HH
#define ZOMBIE_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dvp/mq_dvp.hh"
#include "nand/geometry.hh"
#include "nand/timing.hh"
#include "sim/arbiter.hh"
#include "trace/profile.hh"
#include "trace/record.hh"

namespace zombie
{

/** The systems compared in the evaluation (section V-A). */
enum class SystemKind
{
    Baseline, //!< no content engine at all
    MqDvp,    //!< the proposal: MQ dead-value pool
    LruDvp,   //!< single-LRU pool (Figures 5/6)
    LxSsd,    //!< prior work [20]
    Dedup,    //!< in-line dedup only [4,5]
    DvpDedup, //!< MQ-DVP layered on dedup (section VII)
    Ideal,    //!< infinite dead-value pool
};

SystemKind systemKindFromString(const std::string &name);
std::string toString(SystemKind kind);

/**
 * Dead-value pool tenancy when the drive hosts several tenants:
 * Shared exposes one drive-wide pool to every namespace;
 * Partitioned gives each tenant a private pool over its namespace
 * range (see dvp/partitioned_dvp.hh).
 */
enum class DvpScope : std::uint8_t
{
    Shared,
    Partitioned,
};

DvpScope dvpScopeFromString(const std::string &name);
std::string toString(DvpScope scope);

/** Whether this system computes content hashes on the write path. */
bool usesHashEngine(SystemKind kind);
/** Whether this system owns a dead-value pool. */
bool usesDvp(SystemKind kind);
/** Whether this system runs in-line dedup. */
bool usesDedup(SystemKind kind);

/** Everything needed to instantiate one simulated SSD. */
struct SsdConfig
{
    SystemKind system = SystemKind::Baseline;

    Geometry geom = Geometry::tableI();
    TimingModel timing;

    /** Exported logical space in pages. */
    std::uint64_t logicalPages = 0;

    /** Fraction of the logical space pre-written before timing. */
    double prefillFraction = 0.70;

    /**
     * Controller read-cache entries (pages; 16 MiB at the default).
     * 0 disables the cache. Without one, dedup's many-to-one mapping
     * turns every popular value into a single-die read hotspot.
     */
    std::uint64_t readCacheEntries = 4096;

    /**
     * Host-interface queue depth: NCQ-style command tags, i.e. how
     * many commands the controller front-end holds concurrently
     * (see sim/controller.hh). 1 — the default — reproduces the
     * historical in-order dispatcher byte-for-byte; deeper queues
     * admit bursts concurrently.
     */
    std::uint32_t queueDepth = 1;

    /**
     * Multi-tenant frontend (NVMe-style namespaces). tenants == 1 —
     * the default — keeps the historical single-queue path
     * byte-for-byte; more tenants give each its own submission
     * queue behind the arbiter, with command tags split into
     * weight-proportional budgets.
     */
    std::uint32_t tenants = 1;
    ArbiterKind arbiter = ArbiterKind::RoundRobin;

    /** Per-tenant wrr weights; empty = equal weights. */
    std::vector<std::uint32_t> arbiterWeights;

    /** Shared or per-tenant dead-value pools (tenants > 1 only). */
    DvpScope dvpScope = DvpScope::Shared;

    /**
     * Namespace sizes in pages, tenant order; required whenever
     * tenants > 1 (the trace frontend supplies them). Their prefix
     * sums are the namespace base LPNs.
     */
    std::vector<std::uint64_t> namespacePages;

    /** Hot/cold write-stream separation (see FtlConfig). */
    bool hotColdSeparation = false;
    std::uint8_t hotThreshold = 2;

    /** Dead-value pool sizing (MQ config; capacity shared by LRU/LX). */
    MqDvpConfig mq;

    /**
     * GC victim policy: "auto" = popularity-aware when a DVP is
     * present (paper section IV-D), greedy otherwise. Explicit
     * "greedy"/"popularity" override for the ablation bench.
     */
    std::string gcPolicy = "auto";
    double gcPopWeight = 1.0;
    std::uint32_t gcSoftWater = 5;
    std::uint32_t gcLowWater = 2;

    /** Incremental-GC budget (relocations per host write per plane). */
    std::uint32_t gcPagesPerStep = 2;

    /**
     * Epoch-sampler interval in simulated ticks; 0 — the default —
     * disables sampling entirely (no events, no snapshots), keeping
     * the request path allocation-free and runs byte-identical to
     * builds without telemetry.
     */
    Tick statsInterval = 0;

    /**
     * Record per-flash-op spans into a Perfetto-loadable trace
     * (telemetry/perfetto_trace.hh). Off by default: disabled tracing
     * costs one null check per scheduled op.
     */
    bool opTrace = false;

    /** Spans kept before the trace stops recording (memory bound). */
    std::uint64_t traceLimit = 1'000'000;

    /** Resolved GC policy name for the chosen system. */
    std::string resolvedGcPolicy() const;

    /** Namespace base LPNs (prefix sums of namespacePages). */
    std::vector<Lpn> namespaceBases() const;

    /** Implied over-provisioning fraction. */
    double overProvisioning() const;

    /**
     * Build a config for @p system sized to a workload: logical space
     * = the profile's footprint, physical = footprint * (1 + op),
     * channels/chips kept at 8x8 (Table I), dies/planes/blocks scaled.
     */
    static SsdConfig forProfile(const WorkloadProfile &profile,
                                SystemKind system, double op = 0.15);

    /** Same scaling from a raw footprint in pages. */
    static SsdConfig forFootprint(std::uint64_t footprint_pages,
                                  SystemKind system, double op = 0.15);

    /** One-line human-readable description (bench headers). */
    std::string describe() const;

    /** Fatal on inconsistent settings, or on a drive of more than
     *  kMaxDrivePages pages (the 32-bit page tables' ceiling). */
    void validate() const;
};

} // namespace zombie

#endif // ZOMBIE_SIM_CONFIG_HH

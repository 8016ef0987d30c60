/**
 * @file
 * Workload profiles mirroring the paper's Table II.
 *
 * The FIU (web, home, mail) and OSU (hadoop, trans, desktop) content
 * traces are not redistributable, so each workload is described by the
 * statistics the dead-value-pool mechanism is sensitive to — write
 * ratio, unique-value fractions for reads and writes, value-popularity
 * skew, footprint, and burstiness — and a generator synthesizes traces
 * matching them (see DESIGN.md, substitution table).
 */

#ifndef ZOMBIE_TRACE_PROFILE_HH
#define ZOMBIE_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace zombie
{

/** The six workloads of Table II. */
enum class Workload
{
    Web,
    Home,
    Mail,
    Hadoop,
    Trans,
    Desktop,
};

/** Parse "web" / "home" / ... ; fatal otherwise. */
Workload workloadFromString(const std::string &name);
std::string toString(Workload w);
std::vector<Workload> allWorkloads();

/** Paper-reported Table II characteristics, used for validation. */
struct TableIiRow
{
    double writeRatio;       //!< WR [%] / 100
    double uniqueWriteValue; //!< unique values among writes
    double uniqueReadValue;  //!< unique values among reads
};

TableIiRow tableIi(Workload w);

/**
 * Full parameter set consumed by SyntheticTraceGenerator. Defaults are
 * neutral; use preset() for the calibrated per-workload values.
 */
struct WorkloadProfile
{
    std::string name = "custom";
    std::uint64_t requests = 1'000'000;
    std::uint64_t seed = 42;

    /** Fraction of requests that are writes (Table II WR%). */
    double writeRatio = 0.5;

    /**
     * Probability a write carries brand-new (never seen) content.
     * Primary knob for the unique-write-value fraction.
     */
    double newValueProb = 0.5;

    /**
     * Popular-value pool size as a fraction of the expected write
     * count; secondary knob for unique-write-value fraction.
     */
    double popularPoolFrac = 0.05;

    /** Zipf exponent over the popular-value pool (write popularity). */
    double valueAlpha = 1.05;

    /**
     * Probability an update rewrites the content already stored at the
     * target LPN (redundant in-place rewrite; the Figure 13 pattern).
     */
    double sameValueProb = 0.05;

    /** Logical footprint as a fraction of the expected write count. */
    double footprintFrac = 0.4;

    /** Zipf exponent for choosing which existing LPN a write updates. */
    double updateLpnAlpha = 0.7;

    /**
     * Zipf exponent for read target LPNs; higher = reads concentrate
     * on few pages = lower unique-read-value fraction.
     */
    double readLpnAlpha = 0.6;

    /**
     * Fraction of reads that target cold, never-written data (e.g.
     * pre-existing mailbox files): each such read returns unique
     * content. This is what lets a workload like mail combine 8%
     * unique write values with 80% unique read values (Table II) —
     * read popularity and write popularity are decoupled, the
     * observation the paper leans on against LX-SSD.
     */
    double coldReadFrac = 0.0;

    /** Mean request inter-arrival time in microseconds. */
    double meanInterarrivalUs = 20.0;

    /** Probability a request starts a burst, and the burst geometry. */
    double burstProb = 0.005;
    std::uint64_t burstLength = 32;
    double burstInterarrivalUs = 1.0;

    /**
     * Calibrated preset for a Table II workload. @p day perturbs the
     * seed/parameters to model the multi-day FIU collections
     * (m1..m3, h1..h3, w1..w3 in Figures 1 and 5).
     */
    static WorkloadProfile preset(Workload w, int day = 1,
                                  std::uint64_t requests = 1'000'000,
                                  std::uint64_t seed = 42);

    /** Expected number of writes under this profile. */
    std::uint64_t expectedWrites() const;

    /** Popular-value pool size in values. */
    std::uint64_t popularPoolSize() const;

    /** Write footprint in pages (excludes the cold-read region). */
    std::uint64_t footprintPages() const;

    /** Expected number of reads under this profile. */
    std::uint64_t expectedReads() const;

    /** Cold-read region size in pages ([0, coldReadPages) in LPNs). */
    std::uint64_t coldReadPages() const;

    /** Total LPN space a trace may touch (cold region + footprint). */
    std::uint64_t totalLpnSpace() const;

    /** Fatal on inconsistent parameters (user config error). */
    void validate() const;
};

/**
 * The nine day-traces of Figures 1 and 5: m1..m3, h1..h3, w1..w3.
 * Short label ("m2") plus the calibrated profile.
 */
struct DayTrace
{
    std::string label;
    WorkloadProfile profile;
};

std::vector<DayTrace> fiuDayTraces(std::uint64_t requests_per_day,
                                   std::uint64_t seed = 42);

} // namespace zombie

#endif // ZOMBIE_TRACE_PROFILE_HH

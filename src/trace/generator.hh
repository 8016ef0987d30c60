/**
 * @file
 * Synthetic content-trace generator.
 *
 * Reproduces the three properties of the FIU/OSU traces that the
 * dead-value-pool mechanism depends on (DESIGN.md section 2):
 *
 *  1. write ratio and unique-value fractions per Table II,
 *  2. Zipf value popularity in writes (Fig 3a: ~20% of values take
 *     ~80% of writes), with read popularity decoupled from writes,
 *  3. a death/rebirth process: updates to logical pages invalidate
 *     prior copies of popular values, which the Zipf value sampler
 *     then rewrites later (Figs 3b/3c/4).
 *
 * Generation is streaming and deterministic in the profile's seed.
 */

#ifndef ZOMBIE_TRACE_GENERATOR_HH
#define ZOMBIE_TRACE_GENERATOR_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "trace/profile.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "util/random.hh"
#include "util/zipf.hh"

namespace zombie
{

/** Counters the generator maintains while emitting records. */
struct GeneratorStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t newLpnWrites = 0;
    std::uint64_t updateWrites = 0;
    std::uint64_t sameValueRewrites = 0;
    std::uint64_t freshValueWrites = 0;
    std::uint64_t distinctPoolValuesWritten = 0;
    std::uint64_t distinctValuesRead = 0;

    /** Table II "Unique Value WR" column equivalent. */
    double
    uniqueWriteValueFraction() const
    {
        if (writes == 0)
            return 0.0;
        return static_cast<double>(freshValueWrites +
                                   distinctPoolValuesWritten) /
               static_cast<double>(writes);
    }

    /** Table II "Unique Value RD" column equivalent. */
    double
    uniqueReadValueFraction() const
    {
        if (reads == 0)
            return 0.0;
        return static_cast<double>(distinctValuesRead) /
               static_cast<double>(reads);
    }
};

/** Streaming trace generator; one instance per trace/day. */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    /**
     * Value-id namespace for the cold-read region: the LPN range
     * [0, coldReadPages) holds never-written unique content with id
     * kColdValueBase + lpn. Write-footprint LPNs start above it.
     */
    static constexpr std::uint64_t kColdValueBase =
        0xC01D'0000'0000'0000ULL;

    explicit SyntheticTraceGenerator(WorkloadProfile profile);

    /**
     * Produce the next record. @return false once the profile's
     * request budget is exhausted.
     */
    bool next(TraceRecord &out) override;

    /** Materialize the entire trace (convenience for analyses). */
    std::vector<TraceRecord> generateAll();

    const WorkloadProfile &profile() const { return prof; }
    const GeneratorStats &stats() const { return gstats; }

    /** Number of distinct LPNs written so far. */
    std::uint64_t lpnsUsed() const { return lpnContent.size(); }

    /** First LPN of the write footprint (== coldReadPages()). */
    Lpn footprintBase() const { return coldPages; }

    /** Content currently stored at @p lpn (cold or written). */
    std::uint64_t contentAt(Lpn lpn) const;

  private:
    void emitWrite(TraceRecord &out);
    void emitRead(TraceRecord &out);
    Tick nextArrivalDelta();
    std::uint64_t pickValue(bool updating, std::uint64_t current_vid);

    WorkloadProfile prof;
    Xoshiro256 rng;
    ZipfDistribution valueZipf;
    ZipfDistribution updateZipf;
    ZipfDistribution readZipf;

    /** lpnContent[lpn] = value id currently stored there. */
    std::vector<std::uint64_t> lpnContent;
    std::vector<bool> poolValueWritten;
    std::unordered_set<std::uint64_t> readValues;

    std::uint64_t emitted = 0;
    std::uint64_t freshCounter;
    std::uint64_t coldPages;
    std::uint64_t burstRemaining = 0;
    Tick clock = 0;
    GeneratorStats gstats;
};

} // namespace zombie

#endif // ZOMBIE_TRACE_GENERATOR_HH

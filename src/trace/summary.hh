/**
 * @file
 * Trace summarization: recompute Table II columns from any record
 * stream (synthetic or file-based), independent of the generator's
 * internal counters.
 */

#ifndef ZOMBIE_TRACE_SUMMARY_HH
#define ZOMBIE_TRACE_SUMMARY_HH

#include <cstdint>
#include <vector>

#include "hash/fingerprint.hh"
#include "trace/record.hh"
#include "util/flat_map.hh"

namespace zombie
{

/** Aggregate trace statistics (Table II reproduction). */
struct TraceSummary
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t distinctWriteValues = 0;
    std::uint64_t distinctReadValues = 0;
    std::uint64_t distinctLpns = 0;
    Tick firstArrival = 0;
    Tick lastArrival = 0;

    std::uint64_t total() const { return reads + writes; }

    double
    writeRatio() const
    {
        return total() ? static_cast<double>(writes) /
                             static_cast<double>(total())
                       : 0.0;
    }

    double
    uniqueWriteValueFraction() const
    {
        return writes ? static_cast<double>(distinctWriteValues) /
                            static_cast<double>(writes)
                      : 0.0;
    }

    double
    uniqueReadValueFraction() const
    {
        return reads ? static_cast<double>(distinctReadValues) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * Streaming summarizer (fingerprint-keyed, so it works on any trace).
 * The distinct-value sets are open-addressing and grow on demand:
 * sizing them to the record count would allocate far beyond the
 * distinct counts of a redundant trace.
 */
class TraceSummarizer
{
  public:
    /**
     * @param distinct_values count distinct write and read
     *        fingerprints (O(distinct values) heap).
     * @param distinct_lpns count distinct LPNs (O(footprint) heap);
     *        a caller that already knows the count passes false and
     *        fills TraceSummary::distinctLpns itself.
     * With a set off, its count stays 0; the record counts and the
     * arrival span are always kept.
     */
    explicit TraceSummarizer(bool distinct_values = true,
                             bool distinct_lpns = true)
        : countValues(distinct_values), countLpns(distinct_lpns)
    {
    }

    void observe(const TraceRecord &rec);
    TraceSummary finish() const { return summary; }

  private:
    TraceSummary summary;
    FlatSet<Fingerprint, FingerprintHash> writeValues;
    FlatSet<Fingerprint, FingerprintHash> readValues;
    FlatSet<Lpn> lpns;
    bool countValues;
    bool countLpns;
    bool first = true;
};

/** Convenience over a materialized trace. */
TraceSummary summarizeTrace(const std::vector<TraceRecord> &records);

} // namespace zombie

#endif // ZOMBIE_TRACE_SUMMARY_HH

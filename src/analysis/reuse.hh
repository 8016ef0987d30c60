/**
 * @file
 * Bounded-buffer reuse analysis (paper Figures 5 and 6).
 *
 * Replays a trace's writes through a real DeadValuePool instance
 * (pseudo-PPNs stand in for flash pages, no timing model) and counts
 * how many writes the buffer short-circuits. The same replay tracks
 * the infinite-buffer outcome in parallel so Figure 6 can attribute
 * capacity misses — writes the infinite pool would have served but
 * the bounded pool missed — to the popularity degree of the value.
 */

#ifndef ZOMBIE_ANALYSIS_REUSE_HH
#define ZOMBIE_ANALYSIS_REUSE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dvp/dead_value_pool.hh"
#include "trace/record.hh"

namespace zombie
{

/** Outcome of one bounded-buffer replay. */
struct ReuseResult
{
    std::uint64_t writes = 0;        //!< total host writes
    std::uint64_t reusedWrites = 0;  //!< short-circuited by the pool
    std::uint64_t capacityMisses = 0; //!< infinite would have hit

    /** Writes that still had to be performed on flash. */
    std::uint64_t
    actualWrites() const
    {
        return writes - reusedWrites;
    }
};

/** Average capacity misses per value, binned by popularity degree. */
struct MissBreakdownBin
{
    std::uint64_t popularityDegree; //!< total writes to the value
    std::uint64_t valueCount;
    double avgMisses;
};

/**
 * Trace-level replay harness around any DeadValuePool.
 * Construct with a pool (owned), feed records, read results.
 */
class ReuseAnalyzer
{
  public:
    explicit ReuseAnalyzer(std::unique_ptr<DeadValuePool> pool);
    ~ReuseAnalyzer();

    void observe(const TraceRecord &rec);
    void observeAll(const std::vector<TraceRecord> &records);

    ReuseResult result() const { return res; }
    const DeadValuePool &pool() const { return *dvp; }

    /**
     * Figure 6: average number of capacity misses per value for each
     * popularity degree (values bucketed by their final write count;
     * degrees above 64 are clamped into log-spaced bins).
     */
    std::vector<MissBreakdownBin> missBreakdown() const;

  private:
    struct ValueState
    {
        std::uint64_t writes = 0;
        std::uint64_t liveCopies = 0;
        std::uint64_t deadCopies = 0; //!< infinite-buffer view
        std::uint64_t misses = 0;     //!< bounded missed, infinite hit
    };

    std::unique_ptr<DeadValuePool> dvp;
    std::unordered_map<Fingerprint, ValueState, FingerprintHash> values;
    std::unordered_map<Lpn, Fingerprint> lpnContent;
    std::unordered_map<Lpn, Ppn> lpnPpn;
    std::unordered_map<Lpn, std::uint8_t> lpnPop;
    std::uint64_t nextPseudoPpn = 0;
    ReuseResult res;
};

/** Convenience: replay through an LRU pool (a one-queue MQ pool) of
 * @p capacity entries. */
ReuseResult analyzeLruReuse(const std::vector<TraceRecord> &records,
                            std::uint64_t capacity);

/** Convenience: replay through an MQ pool. */
ReuseResult analyzeMqReuse(const std::vector<TraceRecord> &records,
                           std::uint64_t capacity,
                           std::uint32_t queues = 8);

} // namespace zombie

#endif // ZOMBIE_ANALYSIS_REUSE_HH

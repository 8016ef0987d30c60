/**
 * @file
 * Statistics primitives used across the simulator and benches.
 *
 * The paper reports mean and tail (99th percentile) latencies as well as
 * CDFs of per-value counters. LatencyHistogram gives O(1) recording and
 * approximate (sub-1%) percentiles over arbitrary tick ranges; Cdf
 * builds plot-ready CDF series for the Figure 2/3 style outputs.
 */

#ifndef ZOMBIE_UTIL_STATS_HH
#define ZOMBIE_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zombie
{

/**
 * HDR-style log-bucketed histogram over non-negative 64-bit samples.
 * Each power-of-two range is split into 32 linear sub-buckets, bounding
 * relative quantile error to ~3%; mean is exact (separate sum).
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    void record(std::uint64_t value);
    void merge(const LatencyHistogram &other);
    void reset();

    std::uint64_t count() const { return n; }
    double mean() const;
    std::uint64_t minValue() const { return n ? lo : 0; }
    std::uint64_t maxValue() const { return n ? hi : 0; }

    /** Value at quantile q in [0, 1]; e.g. 0.99 for the paper's tail. */
    std::uint64_t percentile(double q) const;

  private:
    static constexpr int kSubBucketBits = 5;
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kBuckets = 64 * kSubBuckets;

    static int bucketIndex(std::uint64_t value);
    static std::uint64_t bucketUpperBound(int index);

    std::vector<std::uint64_t> counts;
    std::uint64_t n = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    double total = 0.0;
};

/** One (x, fraction<=x) point of a cumulative distribution. */
struct CdfPoint
{
    double x;
    double fraction;
};

/**
 * Build a CDF over raw samples (e.g. per-value invalidation counts for
 * Figure 2). Points are emitted at each distinct sample value.
 */
std::vector<CdfPoint> buildCdf(std::vector<double> samples);

/**
 * Downsample a CDF to at most max_points points, always keeping the
 * first and last, so benches print compact tables.
 */
std::vector<CdfPoint> thinCdf(const std::vector<CdfPoint> &cdf,
                              std::size_t max_points);

/**
 * Flat name -> value registry a component exposes for dumping. Values
 * are stored as doubles; names use dotted paths ("ftl.gc.erases").
 */
class StatSet
{
  public:
    void set(const std::string &name, double value);
    void add(const std::string &name, double delta);
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::map<std::string, double> &all() const { return values; }

    /** Render as aligned "name value" lines. */
    std::string format() const;

  private:
    std::map<std::string, double> values;
};

} // namespace zombie

#endif // ZOMBIE_UTIL_STATS_HH

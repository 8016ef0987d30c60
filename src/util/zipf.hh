/**
 * @file
 * Zipf-distributed sampling over a finite universe of ranks.
 *
 * The paper's workloads show "high skewness in value locality, i.e., a
 * small fraction of values account for a large number of accesses"
 * (around 20% of values account for ~80% of writes, Fig 3a). The trace
 * generator models that skew with a Zipf distribution whose exponent is
 * calibrated per workload.
 */

#ifndef ZOMBIE_UTIL_ZIPF_HH
#define ZOMBIE_UTIL_ZIPF_HH

#include <cstdint>

#include "util/random.hh"

namespace zombie
{

/**
 * Zipf(s, n) sampler by rejection-inversion (Hormann & Derflinger,
 * 1996): O(1) expected per sample independent of n, no tables, exact
 * for s >= 0. Rank 0 is the most popular item. Every pinned trace
 * golden was generated through this sampler's draw sequence.
 */
class ZipfDistribution
{
  public:
    /**
     * @param num_items Size of the universe (must be >= 1).
     * @param exponent Skew parameter s; 0 degenerates to uniform.
     */
    ZipfDistribution(std::uint64_t num_items, double exponent);

    /** Draw a rank in [0, numItems). */
    std::uint64_t sample(Xoshiro256 &rng) const;

    std::uint64_t numItems() const { return items; }
    double exponent() const { return s; }

    /**
     * Fraction of probability mass held by the top `top_ranks` items.
     * Used by tests to check the 20/80 skew property.
     */
    double topMassFraction(std::uint64_t top_ranks) const;

  private:
    double h(double x) const;
    double hInverse(double x) const;

    std::uint64_t items;
    double s;
    double hImaxPlus1;
    double hX0;
    double scale;
};

} // namespace zombie

#endif // ZOMBIE_UTIL_ZIPF_HH

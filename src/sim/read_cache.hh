/**
 * @file
 * Controller read cache.
 *
 * SSD controllers keep recently read pages in on-board RAM; without
 * it, deduplication's many-to-one mapping (section VII) funnels every
 * read of a popular value onto the single die holding its one
 * physical copy, and the resulting hotspot can swamp the latency
 * benefit of the removed writes. The cache is keyed by PPN — valid
 * flash pages are immutable (no write-in-place), so an entry only
 * needs invalidating when its page is reprogrammed after an erase.
 *
 * Exact LRU on the shared containers: one recency chain through an
 * LruSlab of PPNs (util/intrusive_lru.hh), indexed by a FlatMap from
 * PPN to slot (util/flat_map.hh). Both are sized for a full cache at
 * construction, so the per-access path — on the controller hot loop
 * for every read and every program — never touches the heap.
 * Hit/miss/eviction order depends only on the access sequence, never
 * on hash layout.
 */

#ifndef ZOMBIE_SIM_READ_CACHE_HH
#define ZOMBIE_SIM_READ_CACHE_HH

#include <cstdint>

#include "telemetry/stat_registry.hh"
#include "util/flat_map.hh"
#include "util/intrusive_lru.hh"
#include "util/types.hh"

namespace zombie
{

/** Cache hit/miss counters. */
struct ReadCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** LRU page cache keyed by physical page number. */
class ReadCache
{
  public:
    /** @param capacity entries (pages); 0 disables the cache. */
    explicit ReadCache(std::uint64_t capacity);

    bool enabled() const { return cap > 0; }

    /**
     * Look up @p ppn, counting a hit or miss; on a miss the page is
     * inserted (evicting the LRU entry if full).
     * @return true on a hit.
     */
    bool access(Ppn ppn);

    /** Drop @p ppn (its flash page was reprogrammed). */
    void invalidate(Ppn ppn);

    std::uint64_t size() const { return lru.count; }
    std::uint64_t capacity() const { return cap; }
    const ReadCacheStats &stats() const { return cstats; }

    /**
     * Register hit/miss/invalidation counters and the occupancy
     * gauge under "cache.". Counter storage lives in this cache;
     * registrations stay valid for its lifetime.
     */
    void registerStats(StatRegistry &registry) const;

  private:
    /**
     * Fibonacci hashing: one multiply spreads sequential PPNs, and
     * the shift brings the product's well-mixed high bits down to
     * the low bits FlatMap masks. On this per-access path it is
     * cheaper than FlatMap's default two-multiply mixer.
     */
    struct PpnHash
    {
        std::size_t
        operator()(Ppn ppn) const
        {
            return static_cast<std::size_t>(
                (ppn * 0x9E3779B97F4A7C15ULL) >> 32);
        }
    };

    std::uint64_t cap;
    LruSlab<Ppn> pages; //!< one slot per cached page
    LruChain lru;       //!< head = LRU victim
    FlatMap<Ppn, std::uint32_t, PpnHash> index; //!< PPN -> slot
    ReadCacheStats cstats;
};

} // namespace zombie

#endif // ZOMBIE_SIM_READ_CACHE_HH

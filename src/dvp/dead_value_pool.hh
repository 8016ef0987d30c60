/**
 * @file
 * Dead-value pool: the paper's core abstraction.
 *
 * A dead-value pool remembers, for recently invalidated ("dead") flash
 * pages, the 16B hash of their content and the PPN(s) where that
 * content still physically resides. An incoming write whose content
 * hash hits the pool is short-circuited: one dead PPN is revived
 * (Invalid -> Valid) and no flash program happens.
 *
 * Two implementations cover the paper's studied systems:
 *  - MqDvp  the proposed Multi-Queue pool (sections III-IV). Its
 *           one-queue configuration is the single-LRU strawman of
 *           Figures 5/6, and one unbounded queue is the "Ideal"
 *           infinite-capacity pool (see mq_dvp.hh),
 *  - LxDvp  the LX-SSD prior-work baseline [20], keyed by LBA.
 * PartitionedDvp composes per-tenant pools of either kind.
 *
 * Time is measured in write-request count, exactly as the paper's MQ
 * scheme does ("the i-th incoming write request has a timestamp i").
 */

#ifndef ZOMBIE_DVP_DEAD_VALUE_POOL_HH
#define ZOMBIE_DVP_DEAD_VALUE_POOL_HH

#include <cstdint>
#include <string>

#include "hash/fingerprint.hh"
#include "telemetry/stat_registry.hh"
#include "util/types.hh"

namespace zombie
{

/** Counters every pool implementation maintains. */
struct DvpStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;       //!< writes short-circuited
    std::uint64_t insertions = 0; //!< garbage pages registered
    std::uint64_t mergedInsertions = 0; //!< into an existing entry
    std::uint64_t capacityEvictions = 0;
    std::uint64_t gcEvictions = 0; //!< PPNs lost to block erase
    std::uint64_t promotions = 0;  //!< MQ only
    std::uint64_t demotions = 0;   //!< MQ only

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** Result of a write-time pool lookup. */
struct DvpLookupResult
{
    bool hit = false;
    Ppn ppn = kInvalidPpn;      //!< dead page to revive (on hit)
    std::uint8_t popularity = 0; //!< value popularity after this write
};

/** Abstract dead-value pool. */
class DeadValuePool
{
  public:
    virtual ~DeadValuePool() = default;

    /** Human-readable scheme name ("mq", "lru", ...). */
    virtual std::string name() const = 0;

    /**
     * An incoming write carries content @p fp (and, for LBA-keyed
     * schemes, targets @p lpn). On a hit the returned PPN must be
     * revived by the caller and is removed from the pool. Advances
     * the pool's write clock.
     */
    virtual DvpLookupResult lookupForWrite(const Fingerprint &fp,
                                           Lpn lpn) = 0;

    /**
     * A valid page at @p ppn holding content @p fp (logical page
     * @p lpn) was just invalidated with popularity degree @p pop.
     */
    virtual void insertGarbage(const Fingerprint &fp, Lpn lpn, Ppn ppn,
                               std::uint8_t pop) = 0;

    /** GC erased the block containing @p ppn; drop any reference. */
    virtual void onErase(Ppn ppn) = 0;

    /**
     * A host read touched @p lpn. Default no-op: the paper's schemes
     * track write popularity only (prior work LX-SSD conflates reads
     * into recency and overrides this — its inefficiency (i)).
     */
    virtual void onHostRead(Lpn lpn) { (void)lpn; }

    /** Number of entries currently resident. */
    virtual std::uint64_t size() const = 0;

    /** Entry capacity (0 = unbounded). */
    virtual std::uint64_t capacity() const = 0;

    virtual const DvpStats &stats() const = 0;

    /**
     * Register the pool's counters and occupancy/hit-rate gauges
     * under "dvp.<name()>." ("dvp.mq.hits", ...). The stats struct
     * every implementation returns by reference is a long-lived
     * member, so the registered pointers stay valid for the pool's
     * lifetime. Virtual so composite pools (PartitionedDvp) can
     * expose their member pools under per-tenant prefixes.
     */
    virtual void registerStats(StatRegistry &registry) const;

    /**
     * Same registrations under an explicit @p prefix (ending in
     * '.'), for composites that place one pool per tenant in the
     * namespace ("dvp.tenant0.", ...).
     */
    void registerStatsAt(StatRegistry &registry,
                         const std::string &prefix) const;
};

inline void
DeadValuePool::registerStats(StatRegistry &registry) const
{
    registerStatsAt(registry, "dvp." + name() + ".");
}

inline void
DeadValuePool::registerStatsAt(StatRegistry &registry,
                               const std::string &prefix) const
{
    const std::string &p = prefix;
    const DvpStats &s = stats();
    registry.addCounter(p + "lookups", &s.lookups);
    registry.addCounter(p + "hits", &s.hits);
    registry.addCounter(p + "insertions", &s.insertions);
    registry.addCounter(p + "merged_insertions", &s.mergedInsertions);
    registry.addCounter(p + "capacity_evictions",
                        &s.capacityEvictions);
    registry.addCounter(p + "gc_evictions", &s.gcEvictions);
    registry.addCounter(p + "promotions", &s.promotions);
    registry.addCounter(p + "demotions", &s.demotions);
    registry.addGauge(p + "size", [this] {
        return static_cast<double>(size());
    });
    registry.addGauge(p + "hit_rate", [this] {
        return stats().hitRate();
    });
}

/** Saturating 8-bit popularity increment (the Fig 8 1-byte counter). */
inline std::uint8_t
saturatingIncrement(std::uint8_t pop)
{
    return pop == 255 ? pop : static_cast<std::uint8_t>(pop + 1);
}

} // namespace zombie

#endif // ZOMBIE_DVP_DEAD_VALUE_POOL_HH

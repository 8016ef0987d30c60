/**
 * @file
 * Multi-Queue dead-value pool (the paper's proposal, sections III-IV).
 *
 * Entries live in numQueues LRU queues; queue index encodes a
 * popularity band. The scheme integrates:
 *  - frequency: an entry whose log2(popularity+1) exceeds its queue
 *    index is promoted one queue up on access,
 *  - recency: within a queue, access pushes the entry to the MRU tail,
 *  - aging: each entry carries an expiration time computed as
 *    CurrentTime + HottestInterval (the interval between the hottest
 *    entry's last two accesses); on every insert, expired queue heads
 *    are demoted one queue down,
 *  - on-demand eviction from the head (LRU end) of the lowest
 *    non-empty queue when the pool exceeds its entry capacity.
 *
 * Time is the pool's write clock: one tick per lookupForWrite call.
 *
 * The paper's two reference pools are configurations of this class,
 * not classes of their own. With one queue nothing is ever promoted
 * or demoted, so the scheme is plain LRU over content: the Fig 5/6
 * strawman ("lru"). One queue with capacity 0 never evicts: the
 * Ideal system's infinite pool ("infinite").
 */

#ifndef ZOMBIE_DVP_MQ_DVP_HH
#define ZOMBIE_DVP_MQ_DVP_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "dvp/dead_value_pool.hh"
#include "util/flat_map.hh"
#include "util/intrusive_lru.hh"

namespace zombie
{

/** Tunables (paper defaults: 8 queues, 200K entries). */
struct MqDvpConfig
{
    /** Entry capacity; 0 = unbounded (reserves nothing). */
    std::uint64_t capacity = 200'000;
    std::uint32_t numQueues = 8;

    /**
     * Expiration interval (in writes) used until the hottest entry
     * has been accessed twice and its real interval is known.
     */
    std::uint64_t defaultExpiryInterval = 20'000;

    /**
     * Lower bound on the learned expiry interval, as a multiple of
     * the pool capacity. The hottest value can recur every handful of
     * writes, and taking that interval literally would age every
     * entry out of its queue immediately, collapsing MQ into LRU; an
     * entry deserves at least a fraction of one queue-churn cycle
     * (the original MQ paper's lifeTime guidance) before demotion.
     * Set to 0 to follow the literal hottest-interval rule.
     */
    double expiryFloorOfCapacity = 0.5;

    /**
     * Ablation knob: promote straight to the log2 target queue
     * instead of the paper's one-queue-at-a-time rule.
     */
    bool directPromotion = false;

    /**
     * Adaptive capacity (the paper's stated future work, footnote 5:
     * "dynamically tuning the total capacity for MQ, in order to
     * adapt itself to any changes in the workload"). A ghost list
     * remembers recently evicted hashes; a lookup that misses the
     * pool but hits the ghost list is a *regret* — a revival the
     * pool would have made with more room. Every adaptiveWindow
     * lookups: many regrets grow the capacity one step (up to
     * adaptiveMax); an under-used window (no capacity evictions and
     * a half-empty pool) shrinks it (down to adaptiveMin).
     */
    bool adaptive = false;
    std::uint64_t adaptiveMin = 1'024;
    std::uint64_t adaptiveMax = 1'000'000;
    std::uint64_t adaptiveWindow = 10'000;

    /** Regrets per window that trigger growth. */
    std::uint64_t adaptiveRegretThreshold = 64;
};

/** The MQ-DVP scheme. */
class MqDvp : public DeadValuePool
{
  public:
    explicit MqDvp(MqDvpConfig config);

    /** "lru" with one queue, "infinite" when also unbounded, else
     * "mq". */
    std::string name() const override;

    DvpLookupResult lookupForWrite(const Fingerprint &fp,
                                   Lpn lpn) override;
    void insertGarbage(const Fingerprint &fp, Lpn lpn, Ppn ppn,
                       std::uint8_t pop) override;
    void onErase(Ppn ppn) override;

    std::uint64_t size() const override { return liveEntries; }

    /** Current capacity (changes over time when adaptive). */
    std::uint64_t capacity() const override { return cfg.capacity; }
    const DvpStats &stats() const override { return dstats; }

    /** Adaptive-capacity counters. */
    std::uint64_t ghostHits() const { return regretsTotal; }
    std::uint64_t adaptiveGrows() const { return grows; }
    std::uint64_t adaptiveShrinks() const { return shrinks; }

    /** Queue index an entry with this popularity belongs in. */
    std::uint32_t targetQueue(std::uint8_t pop) const;

    /** Introspection for tests: entries currently in queue @p q. */
    std::uint64_t queueLength(std::uint32_t q) const;

    /** Introspection for tests: queue holding @p fp, or -1. */
    int queueOf(const Fingerprint &fp) const;

    /** Number of dead PPNs tracked for @p fp (0 if absent). */
    std::uint64_t ppnCount(const Fingerprint &fp) const;

    /** Current expiry interval (defaultExpiryInterval until learned). */
    std::uint64_t hotInterval() const;

    /** Pool write clock (number of lookupForWrite calls so far). */
    std::uint64_t writeClock() const { return clock; }

  private:
    struct Entry
    {
        Fingerprint fp{};
        /** Dead copies, oldest first (narrowPage); a revival takes
         *  back(). */
        std::vector<StoredPage> ppns;
        std::uint64_t expire = 0;
        std::uint64_t lastAccess = 0;
        std::uint8_t pop = 0;
        std::uint8_t queue = 0;
    };

    void rememberGhost(const Fingerprint &fp);
    void noteRegret(const Fingerprint &fp);
    void adaptWindowTick();

    std::uint32_t allocEntry();
    void freeEntry(std::uint32_t h);
    void unlink(std::uint32_t h);
    void pushTail(std::uint32_t queue_idx, std::uint32_t h);
    void touch(std::uint32_t h, bool count_as_write);
    void updateHottest(std::uint32_t h, std::uint64_t prev_access);
    void demoteExpiredHeads();
    void evictOne();
    void removeEntry(std::uint32_t h);

    MqDvpConfig cfg;
    LruSlab<Entry> entries;
    std::vector<LruChain> queues;
    FlatMap<Fingerprint, std::uint32_t, FingerprintHash> index;
    /** Dead PPN (narrowPage) -> entry handle. */
    FlatMap<StoredPage, std::uint32_t> ppnIndex;

    std::uint64_t liveEntries = 0;
    std::uint64_t clock = 0;

    /**
     * Largest ppns-vector capacity any entry has reached. Freshly
     * acquired slots of a bounded pool are reserved to this
     * high-water mark, so once the workload's dead-copy multiplicity
     * has been seen, slot reuse under eviction churn never touches
     * the allocator.
     */
    std::size_t ppnsHighWater = 0;

    std::uint32_t hottestHandle = kLruNil;
    std::uint8_t hottestPop = 0;
    std::uint64_t hottestInterval = 0; //!< 0 = not learned yet

    /** Ghost list of recently evicted hashes (adaptive mode). */
    std::deque<Fingerprint> ghostFifo;
    FlatSet<Fingerprint, FingerprintHash> ghostSet;
    std::uint64_t regretsWindow = 0;
    std::uint64_t regretsTotal = 0;
    std::uint64_t evictionsWindow = 0;
    std::uint64_t lookupsWindow = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;

    DvpStats dstats;
};

} // namespace zombie

#endif // ZOMBIE_DVP_MQ_DVP_HH

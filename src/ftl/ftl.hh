/**
 * @file
 * The flash translation layer orchestrator.
 *
 * Ties together the mapping table, block manager, GC policy, the
 * optional dead-value pool (the paper's contribution) and the optional
 * dedup fingerprint store (the paper's Dedup baseline / combination
 * system of section VII).
 *
 * The FTL performs all state transitions synchronously and returns
 * the flash operations the controller must charge time for, split
 * into the user op's own steps and collateral GC steps. This keeps
 * the functional model (who writes what where) testable without the
 * event-driven timing layer on top.
 *
 * Write path (sections IV-C and VII):
 *  1. with dedup: look the content up among live pages first; a hit
 *     just remaps the LPN (many-to-one) with no flash program,
 *  2. an update invalidates the old physical page; the dying page's
 *     hash, PPN and popularity degree enter the dead-value pool,
 *  3. the new content is searched in the dead-value pool; a hit
 *     revives a dead page (Invalid -> Valid) and short-circuits the
 *     program entirely,
 *  4. otherwise a page is programmed and GC may be triggered.
 */

#ifndef ZOMBIE_FTL_FTL_HH
#define ZOMBIE_FTL_FTL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dedup/fingerprint_store.hh"
#include "dvp/dead_value_pool.hh"
#include "ftl/block_manager.hh"
#include "ftl/gc_policy.hh"
#include "ftl/mapping.hh"
#include "ftl/wear.hh"
#include "nand/flash_array.hh"
#include "nand/timing.hh"
#include "telemetry/stat_registry.hh"

namespace zombie
{

/** FTL tunables. */
struct FtlConfig
{
    /** Exported logical space in pages. */
    std::uint64_t logicalPages = 0;

    /**
     * Opportunistic threshold: at <= this many free blocks a plane
     * starts collecting, but only victims that pass the quality gate
     * (gcMinInvalid).
     */
    std::uint32_t gcSoftWater = 5;

    /**
     * Mandatory threshold: at <= this many free blocks the quality
     * gate is waived — the best victim is collected regardless, still
     * paced. At <= 1 free block the victim drains in one shot.
     */
    std::uint32_t gcLowWater = 2;

    /**
     * Incremental GC budget: total valid-page relocations advanced
     * per host write, spent round-robin across collecting planes.
     * Keeps background collection paced to the host write rate so
     * synchronized plane fill levels cannot trigger GC storms; a
     * plane down to its last free block drains its victim in one
     * shot regardless (survival mode).
     */
    std::uint32_t gcPagesPerStep = 2;

    /**
     * "greedy" or "popularity" (paper section IV-D; weighs garbage
     * popularity at gcPopWeight). Both break near-ties toward
     * less-worn victims (ftl/gc_policy.hh).
     */
    std::string gcPolicy = "greedy";
    double gcPopWeight = 1.0;

    /**
     * Quality gate for opportunistic (soft-watermark) collection:
     * only victims with at least this many garbage pages are worth
     * collecting early. Waived at/below the mandatory watermark.
     */
    std::uint32_t gcMinInvalid = 192;

    /**
     * Hot/cold stream separation: updates of LPNs whose popularity
     * byte (Figure 8) reaches hotThreshold program through a
     * dedicated write point, so hot pages die together and GC
     * victims carry less live data. Costs one more active block per
     * plane when enabled.
     */
    bool hotColdSeparation = false;
    std::uint8_t hotThreshold = 2;
};

/** One flash operation the controller must schedule. */
struct FlashStep
{
    FlashOp op;
    Ppn ppn;
};

/**
 * Caller-owned scratch holding one host operation's flash steps.
 *
 * Ownership rule (DESIGN.md section 7.10): the caller owns the
 * storage and reuses one buffer across commands; the FTL clears it
 * on entry to write()/read()/trim() and appends its steps. clear()
 * keeps capacity, so after the buffer has grown to the largest
 * result ever produced (bounded by one block's worth of GC work),
 * the request path performs no further heap allocation.
 */
struct FlashStepBuffer
{
    /** Flash steps of the user operation itself (0 or 1 step). */
    std::vector<FlashStep> userSteps;

    /** Collateral GC steps (relocation reads/programs + erases). */
    std::vector<FlashStep> gcSteps;

    void
    clear()
    {
        userSteps.clear();
        gcSteps.clear();
    }

    void
    reserve(std::size_t user, std::size_t gc)
    {
        userSteps.reserve(user);
        gcSteps.reserve(gc);
    }
};

/** Outcome of a host read/write at the FTL level (flags only). */
struct HostOpResult
{
    bool ok = true;            //!< false: read of an unmapped LPN
    bool shortCircuit = false; //!< no program was needed
    bool dvpRevival = false;   //!< a dead page was revived
    bool dedupHit = false;     //!< absorbed by a live duplicate
};

/** FTL-level counters. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t hostReads = 0;
    std::uint64_t unmappedReads = 0;
    std::uint64_t programs = 0; //!< host-caused page programs
    std::uint64_t dvpRevivals = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t gcInvocations = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t trims = 0;
};

/** Page-level FTL with optional DVP and dedup attachments. */
class Ftl
{
  public:
    Ftl(FlashArray &array, FtlConfig config);

    /** Attach the dead-value pool (not owned). May be nullptr. */
    void attachDvp(DeadValuePool *pool);

    /**
     * Attach the dedup store (not owned). May be nullptr. Attach
     * before the first write: the owner chains start out empty.
     */
    void attachDedup(FingerprintStore *store);

    /** Enable dynamic write allocation (see BlockManager). */
    void setDieLoadView(const Tick *die_busy,
                        std::uint32_t planes_per_die);

    /** Group-min accelerator for the die-load view (see
     *  BlockManager::setDieLoadGroups). */
    void setDieLoadGroups(const Tick *group_min,
                          std::uint32_t dies_per_group);

    /**
     * Service a host write of content @p fp to @p lpn, appending the
     * flash work to the caller-owned @p steps (cleared on entry).
     */
    HostOpResult write(Lpn lpn, const Fingerprint &fp,
                       FlashStepBuffer &steps);

    /** Service a host read of @p lpn. */
    HostOpResult read(Lpn lpn, FlashStepBuffer &steps);

    /**
     * Trim (discard) @p lpn: the mapping is dropped and the physical
     * page becomes garbage. Its content still enters the dead-value
     * pool — trimmed data is dead data, and a later write of the
     * same content revives it, extending the paper's mechanism to
     * the discard path. No-op on unmapped LPNs.
     */
    HostOpResult trim(Lpn lpn, FlashStepBuffer &steps);

    /** Drive-wide erase-count statistics. */
    WearSummary wearSummary() const;

    const MappingTable &mapping() const { return map; }
    const FlashArray &flash() const { return array; }
    const BlockManager &blocks() const { return blockMgr; }
    const FtlStats &stats() const { return fstats; }
    const FtlConfig &config() const { return cfg; }
    DeadValuePool *dvp() { return pool; }
    FingerprintStore *dedup() { return store; }

    /**
     * Owner LPNs of a valid physical page (dedup-aware), newest
     * owner first.
     */
    std::vector<Lpn> ownersOf(Ppn ppn) const;

    /**
     * Invariant sweep used by tests and the benchmark: panics on
     * inconsistency. With dedup it also audits the owner chains
     * against the mapping table and the store's refcounts.
     */
    void checkConsistency() const;

    /**
     * Register the FTL's counters under "ftl." (GC activity under
     * "ftl.gc."). Counter storage lives in this FTL; registrations
     * stay valid for its lifetime.
     */
    void registerStats(StatRegistry &registry) const;

  private:
    /** In-flight incremental collection of one victim block. */
    struct GcJob
    {
        std::uint64_t victim = ~0ULL;
        std::uint32_t nextPage = 0;

        bool active() const { return victim != ~0ULL; }
        void reset() { victim = ~0ULL; nextPage = 0; }
    };

    void invalidateLpn(Lpn lpn);
    void mapNewContent(Lpn lpn, Ppn ppn, const Fingerprint &fp,
                       std::uint8_t pop);
    void mapFreshPage(Lpn lpn, Ppn ppn, const Fingerprint &fp,
                      std::uint8_t pop);
    void unlinkOwner(Lpn lpn, Ppn ppn);

    /** The owner after @p lpn on its page's chain (kInvalidLpn at
     *  the tail, and always without dedup: one owner per page). */
    Lpn
    nextOwner(Lpn lpn) const
    {
        return store ? widenPage(ownerNext[lpn]) : kInvalidLpn;
    }

    void checkOwnerChains() const;
    void advanceGcAll(FlashStepBuffer &steps);

    /**
     * Advance @p plane's collection by at most @p budget relocations.
     * @return relocations performed.
     */
    std::uint32_t advanceGc(std::uint64_t plane, std::uint32_t budget,
                            FlashStepBuffer &steps);
    bool startGcJob(std::uint64_t plane);
    void relocatePage(std::uint64_t plane, Ppn src,
                      FlashStepBuffer &steps);
    bool inGcVictim(Ppn ppn) const;

    FlashArray &array;
    FtlConfig cfg;
    MappingTable map;
    BlockManager blockMgr;
    /** Victim-score weight of cfg.gcPolicy (gcPolicyWeight). */
    double popWeight;
    DeadValuePool *pool = nullptr;
    FingerprintStore *store = nullptr;

    /**
     * Owner chains of shared (deduplicated) pages: a doubly linked
     * list per live page threaded through two per-LPN arrays, so
     * linking and unlinking an owner are O(1) and allocate nothing.
     * A chain's head is its page's reverse-map entry
     * (MappingTable::lpnOf). Allocated only when a store is attached;
     * LPNs stored in 32 bits (narrowPage).
     */
    std::vector<StoredPage> ownerNext;
    std::vector<StoredPage> ownerPrev;

    /** One incremental GC job per plane. */
    std::vector<GcJob> gcJobs;
    std::uint64_t gcCursor = 0;

    /**
     * Planes with an open GC job, one bit per plane (same word
     * layout as the BlockManager pacing masks). Together with the
     * manager's low/soft/gate masks this turns the twice-per-write
     * advanceGcAll eligibility scan into a few word operations.
     */
    std::vector<std::uint64_t> gcActiveMask;

    FtlStats fstats;
};

} // namespace zombie

#endif // ZOMBIE_FTL_FTL_HH

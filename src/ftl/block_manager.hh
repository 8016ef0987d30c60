/**
 * @file
 * Free-block pools and write points.
 *
 * Each plane keeps its own free-block stack plus two active blocks:
 * one for host writes and one for GC relocations (so a victim's valid
 * pages never interleave with fresh host data). Host writes stripe
 * across planes channel-first, which is what gives the 8x8 drive its
 * parallelism (paper Table I / section IV-B).
 */

#ifndef ZOMBIE_FTL_BLOCK_MANAGER_HH
#define ZOMBIE_FTL_BLOCK_MANAGER_HH

#include <cstdint>
#include <vector>

#include "nand/flash_array.hh"
#include "nand/geometry.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace zombie
{

/** Write streams: separating them concentrates garbage per block. */
enum class Stream
{
    UserCold, //!< default host-write stream
    UserHot,  //!< updates of popular LPNs (hot/cold separation)
    Gc,       //!< GC relocation stream
};

/** Allocation and free-space accounting on top of FlashArray. */
class BlockManager
{
  public:
    static constexpr std::uint64_t kNoBlock = ~0ULL;

    explicit BlockManager(FlashArray &array);

    // The manager registers itself as the array's block listener
    // (capturing `this`), so it must stay at one address for life.
    BlockManager(const BlockManager &) = delete;
    BlockManager &operator=(const BlockManager &) = delete;

    /**
     * Plane the next host write should land on. Without a die-load
     * view this is channel-first round-robin; with one it is dynamic
     * allocation (SSDSim [13]): the least-busy plane in round-robin
     * order.
     */
    std::uint64_t nextUserPlane();

    /**
     * Install the dynamic-allocation load source: die busy-until
     * ticks read straight from @p die_busy (the resource model's
     * table, one entry per die, never reallocated), where plane p
     * belongs to die p / @p planes_per_die. Pass nullptr to remove.
     */
    void setDieLoadView(const Tick *die_busy,
                        std::uint32_t planes_per_die);

    /**
     * Optional accelerator over the die-load view: @p group_min is
     * the resource model's per-group busy-until minima table
     * (ResourceModel::dieGroupMinTable()), covering
     * @p dies_per_group consecutive dies per entry. The least-busy
     * scan then reads the group table and descends only into groups
     * that carry the global minimum — same plane choice, same
     * tie-break, a fraction of the memory touched. Pass nullptr to
     * remove. Requires a die-load view to be installed.
     */
    void setDieLoadGroups(const Tick *group_min,
                          std::uint32_t dies_per_group);

    /**
     * Program one page on @p plane through the given write stream.
     * Panics if the plane is out of free blocks — the GC
     * policy/thresholds must prevent that.
     * @return the programmed PPN.
     */
    Ppn allocatePage(std::uint64_t plane, Stream stream);

    /**
     * Whether a page can be programmed on @p plane through
     * @p stream without consuming a new free block.
     */
    bool streamHasRoom(std::uint64_t plane, Stream stream) const;

    /** Back-compat shorthand: @p for_gc selects the GC stream. */
    Ppn
    allocatePage(std::uint64_t plane, bool for_gc)
    {
        return allocatePage(plane,
                            for_gc ? Stream::Gc : Stream::UserCold);
    }

    /** Blocks currently on @p plane's free stack. */
    std::uint32_t
    freeBlocks(std::uint64_t plane) const
    {
        zombie_assert(plane < freeLists.size(), "plane out of bounds");
        return static_cast<std::uint32_t>(freeLists[plane].size());
    }

    /** Whether any plane's free stack is empty (emergency GC). */
    bool anyPlaneOutOfFreeBlocks() const { return zeroFreePlanes > 0; }

    /** Smallest free-stack depth across all planes. */
    std::uint32_t minFreeBlocks() const;

    /**
     * GC pacing bitmaps (one bit per plane, 64 planes per word,
     * trailing bits always clear). The paced-GC scan in
     * Ftl::advanceGcAll runs twice per host write; these masks turn
     * its O(planes) eligibility probing into a handful of word
     * loads. Maintained incrementally at every free-stack pop /
     * release against the watermarks configured below.
     */
    void configureGcWatermarks(std::uint32_t low_water,
                               std::uint32_t soft_water);

    /** Planes with an empty free stack (emergency GC). */
    const std::uint64_t *gcZeroMask() const { return zeroMask.data(); }

    /** Planes at/below the mandatory (low) watermark. */
    const std::uint64_t *gcLowMask() const { return lowMask.data(); }

    /** Planes at/below the opportunistic (soft) watermark. */
    const std::uint64_t *gcSoftMask() const { return softMask.data(); }

    /**
     * Planes whose GC-relevant state changed since the victim gate
     * last declined there (see gcGateOk). A clear bit replays the
     * memoized "no" for free.
     */
    const std::uint64_t *gcGateOkMask() const
    {
        return gateOkMask.data();
    }

    /** Words in each plane mask above. */
    std::size_t planeMaskWords() const { return zeroMask.size(); }

    /**
     * Whether the victim gate on @p plane could answer differently
     * than its last memoized refusal. The bit sets at every change
     * to the plane's GC-relevant state (reopenGcGate) and clears at
     * markGcGateFailed().
     */
    bool
    gcGateOk(std::uint64_t plane) const
    {
        return (gateOkMask[plane >> 6] >> (plane & 63)) & 1;
    }

    /** Memoize a victim-gate refusal on @p plane. */
    void
    markGcGateFailed(std::uint64_t plane)
    {
        gateOkMask[plane >> 6] &= ~(1ULL << (plane & 63));
    }

    /** Return an erased block to its plane's free stack. */
    void releaseBlock(std::uint64_t block_index);

    /** True if @p block_index is a write point (never a GC victim). */
    bool isActive(std::uint64_t block_index) const;

    /**
     * Victim candidates on @p plane: full, inactive, some garbage.
     * Served from the incremental per-plane index (ascending block
     * order, O(candidates), no allocation, no plane rescan); the
     * index is kept in sync by the FlashArray block listener plus
     * the write-point transitions this class performs itself.
     */
    const std::vector<std::uint64_t> &
    victimCandidates(std::uint64_t plane) const;

  private:
    /** FlashArray block-listener thunk (ctx is the manager). */
    static void onBlockChanged(void *ctx, std::uint64_t block);

    std::uint64_t popFree(std::uint64_t plane, bool for_gc);

    /** Re-evaluate one block's membership in the victim index. */
    void updateCandidate(std::uint64_t block_index);

    /** Recompute the cached user-write room bit for @p plane. */
    void refreshUserRoom(std::uint64_t plane);

    /** Recompute @p plane's watermark bits after a count change. */
    void refreshWaterBits(std::uint64_t plane);

    /**
     * Reopen @p plane's victim gate. Called at every change to the
     * plane's GC-relevant state: candidate membership or scores (the
     * array's invalidate/revive/erase notifications), every
     * free-stack pop and every block release, so the gate, a pure
     * function of those inputs, can be memoized between them.
     */
    void
    reopenGcGate(std::uint64_t plane)
    {
        gateOkMask[plane >> 6] |= 1ULL << (plane & 63);
    }

    FlashArray &flash;
    const Geometry &geom;
    std::vector<std::vector<std::uint64_t>> freeLists; //!< per plane
    std::vector<std::uint64_t> userActive;             //!< per plane
    std::vector<std::uint64_t> hotActive;              //!< per plane
    std::vector<std::uint64_t> gcActive;               //!< per plane

    /**
     * One block per plane set aside for GC relocation: even with the
     * free stack empty, a victim's valid pages (at most one block's
     * worth) can always move, so collection can always make progress.
     */
    std::vector<std::uint64_t> gcReserve;
    std::vector<std::uint64_t> planeOrder; //!< channel-first striping
    std::uint64_t rrCursor = 0;

    /** Die busy-until view; null = round-robin allocation. */
    const Tick *dieLoad = nullptr;
    std::uint32_t dieCount = 0;          //!< entries in dieLoad

    /**
     * Forward-probe window for the min-load position search: when
     * the minimum is carried by many dies (GC bursts synchronize
     * whole channels' completions), the first matching position sits
     * a step or two past the cursor; a sparse minimum exhausts the
     * window and falls back to the candidate descent.
     */
    static constexpr std::uint32_t kMinProbeWindow = 32;

    /** Per-group die-load minima (see setDieLoadGroups); null
     *  disables the group descent. */
    const Tick *dieGroupLoad = nullptr;
    std::uint32_t dieGroupSize = 0;      //!< dies per group entry
    std::uint32_t dieGroupCount = 0;     //!< entries in dieGroupLoad
    std::vector<std::uint32_t> planeDie; //!< plane -> dieLoad index

    /** planeOrder position -> dieLoad index, so the rotated argmin
     *  scan gathers loads without the planeOrder indirection. */
    std::vector<std::uint32_t> orderDie;

    /** Per die, its planeOrder positions in ascending order, so the
     *  all-room fast path can jump to the first at-or-after-cursor
     *  position of a least-loaded die instead of walking. */
    std::vector<std::vector<std::uint32_t>> diePositions;

    /**
     * Incrementally maintained nextUserPlane() inputs: per-plane
     * free-stack depth and whether a host write fits on the plane
     * without popping a free block. Both change only in popFree /
     * releaseBlock / allocatePage, so the dynamic-allocation scan
     * reads two flat arrays instead of re-deriving room from the
     * free lists and active blocks on every plane, every write.
     */
    std::vector<std::uint32_t> freeCounts;
    std::vector<std::uint8_t> userRoom;

    /** Planes whose free stack is empty right now. */
    std::uint64_t zeroFreePlanes = 0;

    /** Planes whose userRoom bit is currently clear. */
    std::uint64_t noRoomPlanes = 0;

    // GC pacing masks (see the accessors above).
    std::uint32_t gcLowWater = 0;
    std::uint32_t gcSoftWater = 0;
    std::vector<std::uint64_t> zeroMask;
    std::vector<std::uint64_t> lowMask;
    std::vector<std::uint64_t> softMask;
    std::vector<std::uint64_t> gateOkMask;

    /**
     * Incremental victim index: per plane, the sorted block indices
     * satisfying the candidate predicate (full, inactive, some
     * garbage), plus a per-block membership bit so the hot
     * invalidate path updates in O(1) when nothing changes.
     */
    std::vector<std::vector<std::uint64_t>> candidates; //!< per plane
    std::vector<bool> inCandidates;                     //!< per block
};

} // namespace zombie

#endif // ZOMBIE_FTL_BLOCK_MANAGER_HH

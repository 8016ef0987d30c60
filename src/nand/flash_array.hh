/**
 * @file
 * Page/block state bookkeeping for the whole flash array.
 *
 * Enforces the NAND invariants the paper's mechanism lives inside:
 * no write-in-place (a page programs only from the Free state, pages
 * within a block program sequentially), erase works on whole blocks,
 * and an invalidated page is garbage until erased. The one deliberate
 * extension is revivePage(): flipping an Invalid page back to Valid,
 * which is exactly the "zombie revival" the dead-value pool performs
 * on a hit.
 *
 * Each garbage page also remembers the popularity degree its LPN had
 * when it died; the popularity-aware GC victim metric (paper section
 * IV-D) is the weighted sum of these per block.
 *
 * Storage is struct-of-arrays (DESIGN.md section 7.14): the 2-bit
 * page state is packed as two parallel bitmaps (one valid bit and
 * one invalid bit per page, one uint64_t word per 64 pages; both
 * clear = Free, both set = impossible by construction), and the
 * per-block counters live in parallel flat arrays instead of an
 * array of BlockInfo structs. The GC inner loops that used to walk
 * pages one at a time (victim relocation, pool purge, erase reset)
 * scan 64 pages per word via std::countr_zero, and victim scoring
 * gathers from a dense uint32_t array instead of striding through
 * 24-byte structs.
 */

#ifndef ZOMBIE_NAND_FLASH_ARRAY_HH
#define ZOMBIE_NAND_FLASH_ARRAY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "nand/geometry.hh"
#include "telemetry/stat_registry.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace zombie
{

/** Life state of one flash page. */
enum class PageState : std::uint8_t
{
    Free = 0,
    Valid = 1,
    Invalid = 2, //!< garbage ("dead"/zombie candidate)
};

/** Per-block bookkeeping (a gathered view; storage is SoA). */
struct BlockInfo
{
    std::uint32_t writePtr = 0; //!< next page to program (sequential)
    std::uint32_t validCount = 0;
    std::uint32_t invalidCount = 0;
    std::uint32_t eraseCount = 0;

    /** Sum of popularity degrees over current garbage pages. */
    std::uint64_t garbagePopularity = 0;
};

/** Array-wide operation counters. */
struct FlashCounters
{
    std::uint64_t programs = 0;
    std::uint64_t reads = 0;
    std::uint64_t erases = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t revivals = 0;
};

/** State of every page and block in the drive. */
class FlashArray
{
  public:
    explicit FlashArray(const Geometry &geom);

    const Geometry &geometry() const { return geom; }

    /**
     * Observer for block-level garbage transitions. Invoked with the
     * block index after every invalidate, revive and erase — the
     * three operations that can change whether a block is a GC victim
     * candidate from the array's side. The BlockManager uses this to
     * keep its incremental victim index in sync without rescanning
     * planes (programs are not reported: they only affect candidacy
     * through the write-point roll-over, which the BlockManager
     * observes directly).
     *
     * A plain function pointer + context, not std::function: the
     * callback fires on every invalidation (millions per run) and
     * must not pay a type-erased indirect call or risk a capture
     * allocation.
     */
    using BlockListenerFn = void (*)(void *ctx, std::uint64_t block);

    /** Install @p fn/@p ctx (replaces any previous listener;
     *  nullptr fn detaches). */
    void
    setBlockListener(BlockListenerFn fn, void *ctx)
    {
        onBlockChange = fn;
        onBlockChangeCtx = ctx;
    }

    // The page/block accessors below are on the GC scoring and write
    // allocation hot paths (hundreds of calls per host request), so
    // they are defined inline.

    PageState
    state(Ppn ppn) const
    {
        zombie_assert(ppn < geom.totalPages(), "PPN out of bounds");
        const std::uint64_t word = ppn >> 6;
        const std::uint64_t bit = 1ULL << (ppn & 63);
        if (validBits[word] & bit)
            return PageState::Valid;
        return (invalidBits[word] & bit) ? PageState::Invalid
                                         : PageState::Free;
    }

    /** Popularity recorded when the page was invalidated. */
    std::uint8_t
    garbagePopularity(Ppn ppn) const
    {
        zombie_assert(state(ppn) == PageState::Invalid,
                      "garbage popularity queried on non-garbage page");
        return garbagePop[ppn];
    }

    /** Gathered per-block view (tests/reporting; hot loops use the
     *  field accessors or raw arrays below). */
    BlockInfo
    block(std::uint64_t block_index) const
    {
        zombie_assert(block_index < blkEraseCount.size(),
                      "block index out of bounds");
        return BlockInfo{blkWritePtr[block_index],
                         blkValidCount[block_index],
                         blkInvalidCount[block_index],
                         blkEraseCount[block_index],
                         blkGarbagePop[block_index]};
    }

    std::uint32_t
    writePtrOf(std::uint64_t block_index) const
    {
        return blkWritePtr[block_index];
    }

    std::uint32_t
    invalidCountOf(std::uint64_t block_index) const
    {
        return blkInvalidCount[block_index];
    }

    std::uint64_t
    garbagePopularityOf(std::uint64_t block_index) const
    {
        return blkGarbagePop[block_index];
    }

    /** Dense per-block arrays for victim-scoring gather loops. */
    const std::uint32_t *invalidCounts() const
    {
        return blkInvalidCount.data();
    }
    const std::uint32_t *eraseCounts() const
    {
        return blkEraseCount.data();
    }

    /**
     * Program the next free page of @p block_index. Panics if the
     * block is full (the caller must have checked blockHasRoom).
     * @return the PPN that was programmed.
     */
    Ppn programPage(std::uint64_t block_index);

    bool
    blockHasRoom(std::uint64_t block_index) const
    {
        zombie_assert(block_index < blkWritePtr.size(),
                      "block index out of bounds");
        return blkWritePtr[block_index] < geom.pagesPerBlock();
    }

    std::uint32_t
    freePagesInBlock(std::uint64_t block_index) const
    {
        zombie_assert(block_index < blkWritePtr.size(),
                      "block index out of bounds");
        return geom.pagesPerBlock() - blkWritePtr[block_index];
    }

    /** Count a host/GC read of a valid page. */
    void readPage(Ppn ppn);

    /**
     * Invalidate a valid page (out-of-place update or trim), tagging
     * it with the dying LPN's popularity degree for GC scoring.
     */
    void invalidatePage(Ppn ppn, std::uint8_t popularity);

    /**
     * Revive a garbage page: Invalid -> Valid without programming.
     * This is the dead-value-pool hit path (no flash op, no latency
     * beyond mapping updates).
     */
    void revivePage(Ppn ppn);

    /**
     * Erase a block: every page returns to Free. Panics if valid
     * pages remain (GC must relocate them first).
     */
    void eraseBlock(std::uint64_t block_index);

    /**
     * First page index >= @p from_page of @p block_index whose page
     * is Valid, or pagesPerBlock() when none remains. Scans the
     * valid bitmap a word (64 pages) at a time — this is the GC
     * relocation cursor.
     */
    std::uint32_t nextValidPage(std::uint64_t block_index,
                                std::uint32_t from_page) const;

    /** Likewise over the invalid (garbage) bitmap. */
    std::uint32_t nextInvalidPage(std::uint64_t block_index,
                                  std::uint32_t from_page) const;

    const FlashCounters &counters() const { return stats; }

    /**
     * Register the array-wide operation counters under "flash.".
     * Counter storage lives in this array; registrations stay valid
     * for its lifetime.
     */
    void registerStats(StatRegistry &registry) const;

    /** Aggregate page-state census (testing / reporting). */
    std::uint64_t totalFreePages() const { return freePages; }
    std::uint64_t totalValidPages() const { return validPages; }
    std::uint64_t totalInvalidPages() const { return invalidPages; }

    /** Max per-block erase count, maintained at erase time (O(1)). */
    std::uint32_t maxEraseCount() const { return maxErase; }

  private:
    /** Report a garbage transition on @p block_index, if observed. */
    void
    notifyBlock(std::uint64_t block_index)
    {
        if (onBlockChange)
            onBlockChange(onBlockChangeCtx, block_index);
    }

    Geometry geom;
    BlockListenerFn onBlockChange = nullptr;
    void *onBlockChangeCtx = nullptr;

    /**
     * Page-state bit-planes: bit ppn of validBits / invalidBits is
     * the high/low half of the packed 2-bit state. Never both set.
     */
    std::vector<std::uint64_t> validBits;
    std::vector<std::uint64_t> invalidBits;

    std::vector<std::uint8_t> garbagePop;

    // Per-block bookkeeping, struct-of-arrays.
    std::vector<std::uint32_t> blkWritePtr;
    std::vector<std::uint32_t> blkValidCount;
    std::vector<std::uint32_t> blkInvalidCount;
    std::vector<std::uint32_t> blkEraseCount;
    std::vector<std::uint64_t> blkGarbagePop;

    FlashCounters stats;
    std::uint64_t freePages;
    std::uint64_t validPages = 0;
    std::uint64_t invalidPages = 0;
    std::uint32_t maxErase = 0;
};

} // namespace zombie

#endif // ZOMBIE_NAND_FLASH_ARRAY_HH

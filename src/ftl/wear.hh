/**
 * @file
 * Wear accounting.
 *
 * The paper's FTL "is comprised of (i) a Mapping Unit ... and (ii)
 * the garbage collection and wear levelling" (section IV-B), and its
 * lifetime argument rests on erase counts ("each NAND Flash cell can
 * endure only a limited number of erases"). WearSummary holds the
 * per-drive erase-count statistics behind Figure 10's erase
 * reductions; the victim selector's wear tie-break lives in
 * ftl/gc_policy.hh.
 */

#ifndef ZOMBIE_FTL_WEAR_HH
#define ZOMBIE_FTL_WEAR_HH

#include <cstdint>

#include "nand/flash_array.hh"

namespace zombie
{

/** Drive-wide erase-count statistics. */
struct WearSummary
{
    std::uint32_t minErase = 0;
    std::uint32_t maxErase = 0;
    double meanErase = 0.0;
    double stddevErase = 0.0;

    /** max - min: the imbalance wear leveling must bound. */
    std::uint32_t
    skew() const
    {
        return maxErase - minErase;
    }
};

/** Compute erase-count statistics over every block in the array. */
WearSummary summarizeWear(const FlashArray &flash);

} // namespace zombie

#endif // ZOMBIE_FTL_WEAR_HH

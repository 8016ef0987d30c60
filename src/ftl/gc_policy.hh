/**
 * @file
 * GC victim selection.
 *
 * One selector serves every policy. A candidate's score is its
 * invalid-page count minus a weighted, normalized sum of the
 * popularity degrees of its garbage pages: the paper's section IV-D
 * tuning, which lets pages likely to be revived soon survive longer
 * in the dead-value pool. Weight 0 is the conventional greedy
 * (max-invalid-pages) choice. Among candidates whose garbage is
 * within a wear tolerance of the best-scoring block's, the least-worn
 * wins, bounding the erase-count skew the score alone would build up
 * on hot planes (the paper's FTL includes wear levelling, section
 * IV-B).
 */

#ifndef ZOMBIE_FTL_GC_POLICY_HH
#define ZOMBIE_FTL_GC_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nand/flash_array.hh"

namespace zombie
{

/** Garbage pages within which victims count as equally good. */
inline constexpr std::uint32_t kWearTolerance = 8;

/**
 * Popularity weight of a named policy: "greedy" is 0, "popularity"
 * is @p pop_weight. Any other name is fatal.
 */
double gcPolicyWeight(const std::string &name, double pop_weight);

/** The victim score of @p block; higher is a better victim. */
double victimScore(const FlashArray &flash, std::uint64_t block,
                   double pop_weight);

/**
 * Pick the victim among @p candidates (non-empty, erasable block
 * indices): the first highest victimScore(), unless a candidate
 * whose invalid-page count is within @p wear_tolerance of that
 * block's has fewer erases, in which case the least-worn such
 * candidate. Tolerance 0 returns the best score unconditionally.
 */
std::uint64_t selectVictim(const FlashArray &flash,
                           const std::vector<std::uint64_t> &candidates,
                           double pop_weight,
                           std::uint32_t wear_tolerance = kWearTolerance);

} // namespace zombie

#endif // ZOMBIE_FTL_GC_POLICY_HH

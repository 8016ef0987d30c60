#include "ftl/gc_policy.hh"

#include "util/logging.hh"

namespace zombie
{

double
gcPolicyWeight(const std::string &name, double pop_weight)
{
    if (name == "greedy")
        return 0.0;
    if (name == "popularity")
        return pop_weight;
    zombie_fatal("unknown GC policy '", name,
                 "' (expected greedy | popularity)");
}

double
victimScore(const FlashArray &flash, std::uint64_t block,
            double pop_weight)
{
    // Normalize the popularity sum by the 1-byte counter range so a
    // fully popular garbage page cancels roughly `weight / 255` of a
    // reclaimable page.
    const double popularity_penalty =
        pop_weight *
        static_cast<double>(flash.garbagePopularityOf(block)) / 255.0;
    return static_cast<double>(flash.invalidCountOf(block)) -
           popularity_penalty;
}

std::uint64_t
selectVictim(const FlashArray &flash,
             const std::vector<std::uint64_t> &candidates,
             double pop_weight, std::uint32_t wear_tolerance)
{
    zombie_assert(!candidates.empty(), "victim selection with no "
                                       "candidates");
    std::uint64_t best = candidates.front();
    double best_score = victimScore(flash, best, pop_weight);
    for (const std::uint64_t block : candidates) {
        const double s = victimScore(flash, block, pop_weight);
        if (s > best_score) {
            best = block;
            best_score = s;
        }
    }
    if (wear_tolerance == 0)
        return best;

    // Treat candidates within the tolerance of the best victim's
    // garbage as equivalent and pick the least-worn among them.
    const std::uint32_t *invalid_counts = flash.invalidCounts();
    const std::uint32_t *erase_counts = flash.eraseCounts();
    const std::uint32_t best_invalid = invalid_counts[best];
    std::uint64_t chosen = best;
    std::uint32_t chosen_erases = erase_counts[best];
    for (const std::uint64_t block : candidates) {
        const std::uint32_t invalid = invalid_counts[block];
        if (invalid + wear_tolerance < best_invalid ||
            invalid > best_invalid + wear_tolerance) {
            continue;
        }
        if (erase_counts[block] < chosen_erases) {
            chosen = block;
            chosen_erases = erase_counts[block];
        }
    }
    return chosen;
}

} // namespace zombie

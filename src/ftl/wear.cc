#include "ftl/wear.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace zombie
{

WearSummary
summarizeWear(const FlashArray &flash)
{
    WearSummary summary;
    const std::uint64_t blocks = flash.geometry().totalBlocks();
    zombie_assert(blocks > 0, "empty geometry");

    double sum = 0.0;
    double sum_sq = 0.0;
    const std::uint32_t *erase_counts = flash.eraseCounts();
    summary.minErase = erase_counts[0];
    summary.maxErase = erase_counts[0];
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint32_t erases = erase_counts[b];
        summary.minErase = std::min(summary.minErase, erases);
        summary.maxErase = std::max(summary.maxErase, erases);
        sum += erases;
        sum_sq += static_cast<double>(erases) * erases;
    }
    const double n = static_cast<double>(blocks);
    summary.meanErase = sum / n;
    const double variance =
        std::max(0.0, sum_sq / n - summary.meanErase * summary.meanErase);
    summary.stddevErase = std::sqrt(variance);
    return summary;
}

} // namespace zombie

#include "analysis/reuse.hh"

#include <algorithm>
#include <bit>

#include "dvp/mq_dvp.hh"
#include "util/logging.hh"

namespace zombie
{

ReuseAnalyzer::ReuseAnalyzer(std::unique_ptr<DeadValuePool> pool)
    : dvp(std::move(pool))
{
    zombie_assert(dvp != nullptr, "ReuseAnalyzer needs a pool");
}

ReuseAnalyzer::~ReuseAnalyzer() = default;

void
ReuseAnalyzer::observe(const TraceRecord &rec)
{
    if (!rec.isWrite())
        return;

    ++res.writes;
    ValueState &v = values[rec.fp];

    // The previous content of this LPN becomes garbage.
    auto old = lpnContent.find(rec.lpn);
    if (old != lpnContent.end()) {
        ValueState &o = values[old->second];
        zombie_assert(o.liveCopies > 0, "replay copy underflow");
        --o.liveCopies;
        ++o.deadCopies;
        auto ppn_it = lpnPpn.find(rec.lpn);
        zombie_assert(ppn_it != lpnPpn.end(), "lost pseudo PPN");
        dvp->insertGarbage(old->second, rec.lpn, ppn_it->second,
                           lpnPop[rec.lpn]);
    }

    // Bounded pool attempt.
    const DvpLookupResult hit = dvp->lookupForWrite(rec.fp, rec.lpn);

    // Infinite-buffer reference outcome (for capacity misses).
    const bool infinite_hit = v.deadCopies > 0;
    if (infinite_hit)
        --v.deadCopies;

    if (hit.hit) {
        ++res.reusedWrites;
        lpnPpn[rec.lpn] = hit.ppn;
        lpnPop[rec.lpn] = hit.popularity;
    } else {
        if (infinite_hit) {
            ++res.capacityMisses;
            ++v.misses;
        }
        lpnPpn[rec.lpn] = nextPseudoPpn++;
        lpnPop[rec.lpn] = 1;
    }

    ++v.writes;
    ++v.liveCopies;
    lpnContent[rec.lpn] = rec.fp;
}

void
ReuseAnalyzer::observeAll(const std::vector<TraceRecord> &records)
{
    for (const auto &rec : records)
        observe(rec);
}

std::vector<MissBreakdownBin>
ReuseAnalyzer::missBreakdown() const
{
    // Exact degrees up to 64, then power-of-two bins keyed by their
    // lower bound.
    auto bin_of = [](std::uint64_t writes) -> std::uint64_t {
        if (writes <= 64)
            return writes;
        return std::uint64_t{1} << (std::bit_width(writes) - 1);
    };

    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        bins; // degree -> (value count, miss sum)
    for (const auto &[fp, v] : values) {
        auto &[count, misses] = bins[bin_of(v.writes)];
        ++count;
        misses += v.misses;
    }

    std::vector<MissBreakdownBin> rows;
    rows.reserve(bins.size());
    for (const auto &[degree, cm] : bins) {
        rows.push_back({degree, cm.first,
                        static_cast<double>(cm.second) /
                            static_cast<double>(cm.first)});
    }
    return rows;
}

ReuseResult
analyzeLruReuse(const std::vector<TraceRecord> &records,
                std::uint64_t capacity)
{
    return analyzeMqReuse(records, capacity, 1);
}

ReuseResult
analyzeMqReuse(const std::vector<TraceRecord> &records,
               std::uint64_t capacity, std::uint32_t queues)
{
    MqDvpConfig cfg;
    cfg.capacity = capacity;
    cfg.numQueues = queues;
    ReuseAnalyzer analyzer(std::make_unique<MqDvp>(cfg));
    analyzer.observeAll(records);
    return analyzer.result();
}

} // namespace zombie

#include "sim/read_cache.hh"

namespace zombie
{

ReadCache::ReadCache(std::uint64_t capacity) : cap(capacity)
{
    pages.reserve(cap);
    index.reserve(cap);
}

bool
ReadCache::access(Ppn ppn)
{
    if (!enabled())
        return false;

    const auto it = index.find(ppn);
    if (it != index.end()) {
        ++cstats.hits;
        pages.moveToBack(lru, it->second);
        return true;
    }

    ++cstats.misses;
    std::uint32_t slot;
    if (lru.count >= cap) {
        // Evict the LRU page and recycle its slot in place.
        slot = lru.head;
        pages.unlink(lru, slot);
        index.erase(pages[slot]);
    } else {
        slot = pages.acquire();
    }
    pages[slot] = ppn;
    pages.pushBack(lru, slot);
    index[ppn] = slot;
    return false;
}

void
ReadCache::invalidate(Ppn ppn)
{
    if (!enabled())
        return;
    const auto it = index.find(ppn);
    if (it == index.end())
        return;
    ++cstats.invalidations;
    const std::uint32_t slot = it->second;
    index.erase(it);
    pages.unlink(lru, slot);
    pages.release(slot);
}

void
ReadCache::registerStats(StatRegistry &registry) const
{
    registry.addCounter("cache.hits", &cstats.hits);
    registry.addCounter("cache.misses", &cstats.misses);
    registry.addCounter("cache.invalidations", &cstats.invalidations);
    registry.addGauge("cache.occupancy", [this] {
        return static_cast<double>(size());
    });
}

} // namespace zombie

#include "dvp/mq_dvp.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace zombie
{

MqDvp::MqDvp(MqDvpConfig config) : cfg(config)
{
    if (cfg.numQueues == 0)
        zombie_fatal("MQ-DVP needs at least one queue");
    if (cfg.adaptive) {
        if (cfg.capacity == 0)
            zombie_fatal("adaptive MQ-DVP needs a starting capacity "
                         "> 0");
        if (cfg.adaptiveMin == 0 || cfg.adaptiveWindow == 0)
            zombie_fatal("adaptive MQ-DVP needs a positive minimum "
                         "capacity and window");
        if (cfg.adaptiveMin > cfg.adaptiveMax)
            zombie_fatal("adaptiveMin exceeds adaptiveMax");
        cfg.capacity = std::clamp(cfg.capacity, cfg.adaptiveMin,
                                  cfg.adaptiveMax);
    }
    queues.resize(cfg.numQueues);
    entries.reserve(std::min<std::uint64_t>(cfg.capacity, 1u << 20));

    // Size the hash tables for a full pool up front: warm-up rehash
    // churn otherwise dominates the first capacity's worth of
    // inserts. ppnIndex usually tracks about one dead PPN per entry.
    const std::uint64_t expected =
        std::min<std::uint64_t>(cfg.capacity, 1u << 20);
    index.reserve(expected);
    ppnIndex.reserve(expected);
}

std::string
MqDvp::name() const
{
    if (cfg.numQueues > 1)
        return "mq";
    return cfg.capacity == 0 ? "infinite" : "lru";
}

std::uint32_t
MqDvp::targetQueue(std::uint8_t pop) const
{
    // Paper section IV-C: promote while log2(PopDegree + 1) exceeds
    // the current queue index.
    const std::uint32_t level =
        std::bit_width(static_cast<std::uint32_t>(pop) + 1u) - 1u;
    return std::min(level, cfg.numQueues - 1);
}

std::uint64_t
MqDvp::queueLength(std::uint32_t q) const
{
    zombie_assert(q < cfg.numQueues, "queue index out of range");
    return queues[q].count;
}

int
MqDvp::queueOf(const Fingerprint &fp) const
{
    auto it = index.find(fp);
    return it == index.end() ? -1
                             : static_cast<int>(entries[it->second].queue);
}

std::uint64_t
MqDvp::ppnCount(const Fingerprint &fp) const
{
    auto it = index.find(fp);
    return it == index.end() ? 0 : entries[it->second].ppns.size();
}

std::uint64_t
MqDvp::hotInterval() const
{
    const std::uint64_t learned =
        hottestInterval ? hottestInterval : cfg.defaultExpiryInterval;
    const auto floor = static_cast<std::uint64_t>(
        cfg.expiryFloorOfCapacity * static_cast<double>(cfg.capacity));
    return std::max(learned, floor);
}

std::uint32_t
MqDvp::allocEntry()
{
    // Reset fields individually rather than assigning Entry{}: the
    // reused slot's ppns vector keeps its capacity, so steady-state
    // eviction/insertion churn never allocates. Only a bounded pool
    // reserves to the high-water mark: its slot count is capped by
    // the capacity, an unbounded pool's is not.
    const std::uint32_t h = entries.acquire();
    Entry &e = entries[h];
    e.fp = Fingerprint{};
    e.ppns.clear();
    if (cfg.capacity > 0 && e.ppns.capacity() < ppnsHighWater)
        e.ppns.reserve(ppnsHighWater);
    e.expire = 0;
    e.lastAccess = 0;
    e.pop = 0;
    e.queue = 0;
    return h;
}

void
MqDvp::freeEntry(std::uint32_t h)
{
    entries.release(h);
}

void
MqDvp::unlink(std::uint32_t h)
{
    entries.unlink(queues[entries[h].queue], h);
}

void
MqDvp::pushTail(std::uint32_t queue_idx, std::uint32_t h)
{
    entries[h].queue = static_cast<std::uint8_t>(queue_idx);
    entries.pushBack(queues[queue_idx], h);
}

void
MqDvp::updateHottest(std::uint32_t h, std::uint64_t prev_access)
{
    Entry &e = entries[h];
    if (e.pop < hottestPop && h != hottestHandle)
        return;
    if (h == hottestHandle || e.pop >= hottestPop) {
        // Interval between the hottest entry's last two accesses
        // (paper section IV-A) drives expiration of every entry.
        if (h == hottestHandle && clock > prev_access)
            hottestInterval = clock - prev_access;
        hottestHandle = h;
        hottestPop = e.pop;
    }
}

void
MqDvp::touch(std::uint32_t h, bool count_as_write)
{
    Entry &e = entries[h];
    const std::uint64_t prev_access = e.lastAccess;

    unlink(h);

    std::uint32_t dest = e.queue;
    const std::uint32_t target = targetQueue(e.pop);
    if (target > dest) {
        dest = cfg.directPromotion ? target : dest + 1;
        ++dstats.promotions;
    }
    pushTail(dest, h);

    e.lastAccess = clock;
    e.expire = clock + hotInterval();
    if (count_as_write)
        updateHottest(h, prev_access);
}

void
MqDvp::demoteExpiredHeads()
{
    // Paper section IV-C: on each update, the head (LRU side) of each
    // queue is checked and demoted one queue if its expiry passed.
    for (std::uint32_t qi = 1; qi < cfg.numQueues; ++qi) {
        const std::uint32_t h = queues[qi].head;
        if (h == kLruNil)
            continue;
        Entry &e = entries[h];
        if (e.expire < clock) {
            unlink(h);
            pushTail(qi - 1, h);
            e.expire = clock + hotInterval();
            ++dstats.demotions;
        }
    }
}

void
MqDvp::removeEntry(std::uint32_t h)
{
    Entry &e = entries[h];
    for (const StoredPage ppn : e.ppns)
        ppnIndex.erase(ppn);
    index.erase(e.fp);
    unlink(h);
    if (h == hottestHandle)
        hottestHandle = kLruNil; // popularity watermark persists
    freeEntry(h);
    zombie_assert(liveEntries > 0, "live entry count underflow");
    --liveEntries;
}

void
MqDvp::rememberGhost(const Fingerprint &fp)
{
    if (!cfg.adaptive)
        return;
    if (ghostSet.insert(fp))
        ghostFifo.push_back(fp);
    // The ghost list is bounded by the current capacity.
    while (ghostFifo.size() > cfg.capacity) {
        ghostSet.erase(ghostFifo.front());
        ghostFifo.pop_front();
    }
}

void
MqDvp::noteRegret(const Fingerprint &fp)
{
    if (!cfg.adaptive)
        return;
    if (ghostSet.erase(fp) > 0) {
        ++regretsWindow;
        ++regretsTotal;
        // Leave the stale fingerprint in the FIFO; it is skipped when
        // it ages out because the set no longer contains it.
    }
}

void
MqDvp::adaptWindowTick()
{
    if (!cfg.adaptive || ++lookupsWindow < cfg.adaptiveWindow)
        return;

    if (regretsWindow >= cfg.adaptiveRegretThreshold &&
        cfg.capacity < cfg.adaptiveMax) {
        // Evictions cost revivals: grow by one eighth.
        cfg.capacity = std::min(cfg.adaptiveMax,
                                cfg.capacity + cfg.capacity / 8 + 1);
        ++grows;
    } else if (evictionsWindow == 0 &&
               liveEntries < cfg.capacity / 2 &&
               cfg.capacity > cfg.adaptiveMin) {
        // Under-used: release RAM back to the controller.
        cfg.capacity = std::max(cfg.adaptiveMin,
                                cfg.capacity - cfg.capacity / 8);
        while (liveEntries > cfg.capacity)
            evictOne();
        ++shrinks;
    }
    regretsWindow = 0;
    evictionsWindow = 0;
    lookupsWindow = 0;
}

void
MqDvp::evictOne()
{
    for (std::uint32_t qi = 0; qi < cfg.numQueues; ++qi) {
        if (queues[qi].head == kLruNil)
            continue;
        ++dstats.capacityEvictions;
        ++evictionsWindow;
        rememberGhost(entries[queues[qi].head].fp);
        removeEntry(queues[qi].head);
        return;
    }
    zombie_panic("eviction requested from an empty pool");
}

DvpLookupResult
MqDvp::lookupForWrite(const Fingerprint &fp, Lpn)
{
    ++clock;
    ++dstats.lookups;
    adaptWindowTick();

    auto it = index.find(fp);
    if (it == index.end()) {
        noteRegret(fp);
        return DvpLookupResult{};
    }

    const std::uint32_t h = it->second;
    Entry &e = entries[h];
    zombie_assert(!e.ppns.empty(), "pool entry without dead PPNs");

    // Revive the most recently deceased copy.
    const StoredPage stored = e.ppns.back();
    e.ppns.pop_back();
    ppnIndex.erase(stored);

    e.pop = saturatingIncrement(e.pop);
    const std::uint8_t pop_after = e.pop;

    ++dstats.hits;
    if (e.ppns.empty()) {
        // No garbage copies remain: the entry no longer describes a
        // dead value and is dropped (paper section IV-C, Writes).
        removeEntry(h);
    } else {
        touch(h, true);
    }

    DvpLookupResult result;
    result.hit = true;
    result.ppn = widenPage(stored);
    result.popularity = pop_after;
    return result;
}

void
MqDvp::insertGarbage(const Fingerprint &fp, Lpn, Ppn ppn,
                     std::uint8_t pop)
{
    ++dstats.insertions;
    const StoredPage stored = narrowPage(ppn);

    auto it = index.find(fp);
    if (it != index.end()) {
        const std::uint32_t h = it->second;
        Entry &e = entries[h];
        e.ppns.push_back(stored);
        ppnsHighWater = std::max(ppnsHighWater, e.ppns.capacity());
        ppnIndex[stored] = h;
        // Another copy of this value died; keep the strongest
        // popularity evidence among the copies.
        e.pop = std::max(e.pop, pop);
        touch(h, true);
        ++dstats.mergedInsertions;
        demoteExpiredHeads();
        return;
    }

    if (cfg.capacity > 0 && liveEntries >= cfg.capacity)
        evictOne();

    const std::uint32_t h = allocEntry();
    Entry &e = entries[h];
    e.fp = fp;
    e.ppns.push_back(stored);
    ppnsHighWater = std::max(ppnsHighWater, e.ppns.capacity());
    e.pop = pop;
    e.lastAccess = clock;
    e.expire = clock + hotInterval();
    pushTail(0, h);
    index[fp] = h;
    ppnIndex[stored] = h;
    ++liveEntries;
    updateHottest(h, e.lastAccess);

    demoteExpiredHeads();
}

void
MqDvp::onErase(Ppn ppn)
{
    const StoredPage stored = narrowPage(ppn);
    auto it = ppnIndex.find(stored);
    if (it == ppnIndex.end())
        return;
    const std::uint32_t h = it->second;
    Entry &e = entries[h];
    auto pos = std::find(e.ppns.begin(), e.ppns.end(), stored);
    zombie_assert(pos != e.ppns.end(), "ppn index out of sync");
    e.ppns.erase(pos);
    ppnIndex.erase(it);
    ++dstats.gcEvictions;
    if (e.ppns.empty())
        removeEntry(h);
}

} // namespace zombie

#include "dedup/fingerprint_store.hh"

#include <algorithm>

#include "util/logging.hh"

namespace zombie
{

FingerprintStore::FingerprintStore(std::uint64_t expected_pages)
{
    byFp.reserve(std::min<std::uint64_t>(expected_pages, 1u << 22));
}

std::optional<Ppn>
FingerprintStore::lookup(const Fingerprint &fp)
{
    ++dstats.lookups;
    auto it = byFp.find(fp);
    if (it == byFp.end())
        return std::nullopt;
    return widenPage(it->second.ppn);
}

const FingerprintStore::Entry *
FingerprintStore::find(const Fingerprint &fp) const
{
    auto it = byFp.find(fp);
    return it == byFp.end() ? nullptr : &it->second;
}

void
FingerprintStore::registerPage(const Fingerprint &fp, Ppn ppn)
{
    const bool fresh =
        byFp.insert({fp, Entry{narrowPage(ppn), 1, 1}}).second;
    zombie_assert(fresh, "fingerprint already live: ", fp.hex());
    ++dstats.registered;
}

std::uint8_t
FingerprintStore::addReference(const Fingerprint &fp)
{
    auto it = byFp.find(fp);
    zombie_assert(it != byFp.end(), "addReference to unknown content");
    ++it->second.refs;
    it->second.pop = it->second.pop == 255
                         ? it->second.pop
                         : static_cast<std::uint8_t>(it->second.pop + 1);
    ++dstats.hits;
    return it->second.pop;
}

std::uint32_t
FingerprintStore::releaseReference(const Fingerprint &fp)
{
    auto it = byFp.find(fp);
    zombie_assert(it != byFp.end(),
                  "releaseReference on untracked content ", fp.hex());
    zombie_assert(it->second.refs > 0, "refcount underflow");

    const std::uint32_t remaining = --it->second.refs;
    if (remaining == 0) {
        byFp.erase(it);
        ++dstats.lastRefDrops;
    }
    return remaining;
}

void
FingerprintStore::relocate(const Fingerprint &fp, Ppn to)
{
    auto it = byFp.find(fp);
    zombie_assert(it != byFp.end(), "relocate of untracked content ",
                  fp.hex());
    it->second.ppn = narrowPage(to);
}

std::uint32_t
FingerprintStore::refCount(const Fingerprint &fp) const
{
    const Entry *e = find(fp);
    return e ? e->refs : 0;
}

std::uint8_t
FingerprintStore::popularity(const Fingerprint &fp) const
{
    const Entry *e = find(fp);
    return e ? e->pop : 0;
}

bool
FingerprintStore::contains(const Fingerprint &fp) const
{
    return byFp.contains(fp);
}

void
FingerprintStore::registerStats(StatRegistry &registry) const
{
    registry.addCounter("dedup.lookups", &dstats.lookups);
    registry.addCounter("dedup.hits", &dstats.hits);
    registry.addCounter("dedup.registered", &dstats.registered);
    registry.addCounter("dedup.last_ref_drops", &dstats.lastRefDrops);
    registry.addGauge("dedup.live_entries", [this] {
        return static_cast<double>(size());
    });
}

} // namespace zombie

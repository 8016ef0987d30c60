#include "ftl/mapping.hh"

#include "util/logging.hh"

namespace zombie
{

namespace
{

/** @return @p logical_pages once the table's sizes pass its checks,
 *  so the first member initializer runs them before any allocates. */
std::uint64_t
checkedLogicalPages(std::uint64_t logical_pages,
                    std::uint64_t physical_pages)
{
    if (logical_pages == 0)
        zombie_fatal("mapping table needs a non-empty logical space");
    if (physical_pages < logical_pages)
        zombie_fatal("physical space (", physical_pages,
                     " pages) smaller than logical space (",
                     logical_pages, " pages)");
    checkDrivePages(physical_pages);
    return logical_pages;
}

} // namespace

MappingTable::MappingTable(std::uint64_t logical_pages,
                           std::uint64_t physical_pages)
    : forward(checkedLogicalPages(logical_pages, physical_pages),
              kNoStoredPage),
      reverse(physical_pages, kNoStoredPage),
      pop(logical_pages, 0),
      content(logical_pages)
{
}

void
MappingTable::checkLpn(Lpn lpn) const
{
    zombie_assert(lpn < forward.size(), "LPN ", lpn, " out of bounds");
}

void
MappingTable::checkPpn(Ppn ppn) const
{
    zombie_assert(ppn < reverse.size(), "PPN ", ppn, " out of bounds");
}

bool
MappingTable::isMapped(Lpn lpn) const
{
    checkLpn(lpn);
    return forward[lpn] != kNoStoredPage;
}

Ppn
MappingTable::ppnOf(Lpn lpn) const
{
    checkLpn(lpn);
    return widenPage(forward[lpn]);
}

void
MappingTable::map(Lpn lpn, Ppn ppn)
{
    checkLpn(lpn);
    checkPpn(ppn);
    if (forward[lpn] == kNoStoredPage)
        ++mapped;
    forward[lpn] = narrowPage(ppn);
    reverse[ppn] = narrowPage(lpn);
}

void
MappingTable::unmap(Lpn lpn)
{
    checkLpn(lpn);
    const StoredPage ppn = forward[lpn];
    if (ppn == kNoStoredPage)
        return;
    if (reverse[ppn] == narrowPage(lpn))
        reverse[ppn] = kNoStoredPage;
    forward[lpn] = kNoStoredPage;
    --mapped;
}

Lpn
MappingTable::lpnOf(Ppn ppn) const
{
    checkPpn(ppn);
    return widenPage(reverse[ppn]);
}

void
MappingTable::clearReverse(Ppn ppn)
{
    checkPpn(ppn);
    reverse[ppn] = kNoStoredPage;
}

std::uint8_t
MappingTable::popularity(Lpn lpn) const
{
    checkLpn(lpn);
    return pop[lpn];
}

void
MappingTable::setPopularity(Lpn lpn, std::uint8_t p)
{
    checkLpn(lpn);
    pop[lpn] = p;
}

const Fingerprint &
MappingTable::fingerprintOf(Lpn lpn) const
{
    checkLpn(lpn);
    return content[lpn];
}

void
MappingTable::setFingerprint(Lpn lpn, const Fingerprint &fp)
{
    checkLpn(lpn);
    content[lpn] = fp;
}

} // namespace zombie

#include "util/types.hh"

#include "util/logging.hh"

namespace zombie
{

namespace detail
{

void
storedPageOverflow(std::uint64_t page)
{
    zombie_panic("page number ", page, " does not fit ",
                 sizeof(StoredPage) * 8, "-bit storage");
}

} // namespace detail

void
checkDrivePages(std::uint64_t pages)
{
    if (pages > kMaxDrivePages)
        zombie_fatal("drive of ", pages, " pages exceeds the ",
                     kMaxDrivePages,
                     "-page ceiling of 32-bit page tables (16 TiB at "
                     "4 KiB)");
}

} // namespace zombie

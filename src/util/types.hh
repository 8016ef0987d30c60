/**
 * @file
 * Fundamental index and time types shared by every zombie module.
 *
 * The simulator follows the paper's terminology: a logical page number
 * (LPN) names a 4KB chunk in the host address space, a physical page
 * number (PPN) names a flash page, and simulated time advances in
 * nanosecond ticks.
 */

#ifndef ZOMBIE_UTIL_TYPES_HH
#define ZOMBIE_UTIL_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace zombie
{

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Logical page number: index of a 4KB chunk in host address space. */
using Lpn = std::uint64_t;

/** Physical page number: flat index of a flash page in the array. */
using Ppn = std::uint64_t;

/** Sentinel for "no page mapped". */
inline constexpr Lpn kInvalidLpn = std::numeric_limits<Lpn>::max();
inline constexpr Ppn kInvalidPpn = std::numeric_limits<Ppn>::max();
inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/**
 * A page number as per-page and per-entry tables store it. Lpn and
 * Ppn stay 64-bit in every interface; only storage narrows, which
 * halves the page-number arrays of the mapping table and the owner
 * chains, and the pool's dead-PPN lists (DESIGN.md section 7.12).
 */
using StoredPage = std::uint32_t;

/** The stored form of kInvalidPpn and kInvalidLpn. */
inline constexpr StoredPage kNoStoredPage = ~StoredPage{0};

/**
 * Largest drive, in pages, whose page numbers narrow to StoredPage
 * with kNoStoredPage still free: 2^32 - 1 pages, 16 TiB at 4 KiB.
 */
inline constexpr std::uint64_t kMaxDrivePages = kNoStoredPage;

namespace detail
{

[[noreturn]] void storedPageOverflow(std::uint64_t page);

} // namespace detail

/**
 * Narrow @p page for storage: kInvalidPpn (== kInvalidLpn) becomes
 * kNoStoredPage; any other page at or above kNoStoredPage panics
 * rather than wrap.
 */
inline StoredPage
narrowPage(std::uint64_t page)
{
    if (page < kNoStoredPage) [[likely]]
        return static_cast<StoredPage>(page);
    if (page != kInvalidPpn)
        detail::storedPageOverflow(page);
    return kNoStoredPage;
}

/** Inverse of narrowPage: kNoStoredPage becomes kInvalidPpn. */
inline constexpr std::uint64_t
widenPage(StoredPage page)
{
    return page == kNoStoredPage ? kInvalidPpn : page;
}

/**
 * Fatal unless a drive of @p pages fits the 32-bit tables (at most
 * kMaxDrivePages). SsdConfig::validate and MappingTable call it
 * before anything sized by the drive allocates.
 */
void checkDrivePages(std::uint64_t pages);

/** Page size used throughout the paper: requests are 4KB chunks. */
inline constexpr std::size_t kPageSize = 4096;

/** Tick helpers: the config file quotes latencies in us/ms. */
inline constexpr Tick
ticksFromUs(double us)
{
    return static_cast<Tick>(us * 1000.0);
}

inline constexpr Tick
ticksFromMs(double ms)
{
    return static_cast<Tick>(ms * 1000.0 * 1000.0);
}

inline constexpr double
usFromTicks(Tick t)
{
    return static_cast<double>(t) / 1000.0;
}

} // namespace zombie

#endif // ZOMBIE_UTIL_TYPES_HH

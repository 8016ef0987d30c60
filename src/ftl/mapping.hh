/**
 * @file
 * Page-level LPN-to-PPN mapping table (paper Figure 8).
 *
 * Both directions store page numbers in 32 bits (StoredPage), so a
 * table refuses a drive past kMaxDrivePages before it allocates.
 * Besides the forward map, each LPN entry carries the 1-byte
 * popularity degree the paper adds ("not to lose the popularity
 * information of a data block once it is evicted from the dead-value
 * pool") and — simulation bookkeeping standing in for the page's
 * content — the fingerprint currently stored at the LPN, which the
 * controller needs when the page dies (its hash is inserted into the
 * dead-value pool). A one-owner reverse map supports GC relocation;
 * with dedup, a shared page's reverse entry heads the FTL's owner
 * chain for that page.
 */

#ifndef ZOMBIE_FTL_MAPPING_HH
#define ZOMBIE_FTL_MAPPING_HH

#include <cstdint>
#include <vector>

#include "hash/fingerprint.hh"
#include "util/types.hh"

namespace zombie
{

/** Forward + reverse page-level mapping with popularity bytes. */
class MappingTable
{
  public:
    /** Fatal on an empty logical space, a physical space smaller
     *  than it, or one past kMaxDrivePages; all three checks run
     *  before any table allocates. */
    MappingTable(std::uint64_t logical_pages,
                 std::uint64_t physical_pages);

    std::uint64_t logicalPages() const { return forward.size(); }

    bool isMapped(Lpn lpn) const;
    Ppn ppnOf(Lpn lpn) const;

    /** Map (or remap) @p lpn to @p ppn, updating the reverse map. */
    void map(Lpn lpn, Ppn ppn);

    /** Drop the mapping for @p lpn (trim / update bookkeeping). */
    void unmap(Lpn lpn);

    /** Owner LPN of a physical page (kInvalidLpn if none). */
    Lpn lpnOf(Ppn ppn) const;

    /** Clear the reverse entry without touching the forward map. */
    void clearReverse(Ppn ppn);

    std::uint8_t popularity(Lpn lpn) const;
    void setPopularity(Lpn lpn, std::uint8_t pop);

    const Fingerprint &fingerprintOf(Lpn lpn) const;
    void setFingerprint(Lpn lpn, const Fingerprint &fp);

    std::uint64_t mappedCount() const { return mapped; }

    /** Per-entry RAM cost in bytes (Figure 8 accounting). */
    static constexpr std::size_t
    bytesPerEntry()
    {
        // 32-bit PPN + 1B popularity.
        return sizeof(StoredPage) + 1;
    }

  private:
    void checkLpn(Lpn lpn) const;
    void checkPpn(Ppn ppn) const;

    std::vector<StoredPage> forward; //!< LPN -> PPN
    std::vector<StoredPage> reverse; //!< PPN -> owner LPN
    std::vector<std::uint8_t> pop;
    std::vector<Fingerprint> content;
    std::uint64_t mapped = 0;
};

} // namespace zombie

#endif // ZOMBIE_FTL_MAPPING_HH

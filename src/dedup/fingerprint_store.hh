/**
 * @file
 * Refcounted fingerprint store for in-line deduplication.
 *
 * Implements the CAFTL/value-locality style device-level dedup the
 * paper uses as its Dedup baseline (references [4], [5]): a live
 * physical page is indexed by its content hash; a write whose hash is
 * already live maps the LPN onto the existing PPN (many-to-one) and
 * bumps a reference count. A physical page becomes garbage only when
 * its last reference is dropped (paper section VII).
 */

#ifndef ZOMBIE_DEDUP_FINGERPRINT_STORE_HH
#define ZOMBIE_DEDUP_FINGERPRINT_STORE_HH

#include <cstdint>
#include <optional>

#include "hash/fingerprint.hh"
#include "telemetry/stat_registry.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace zombie
{

/** Dedup bookkeeping counters. */
struct DedupStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0; //!< writes absorbed by an existing page
    std::uint64_t registered = 0;
    std::uint64_t lastRefDrops = 0; //!< pages that became garbage

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * Live-content index: fingerprint -> (PPN, refcount, popularity).
 *
 * One map keyed by content. The reverse direction (which content a
 * physical page holds) is the mapping table's: every owner LPN of a
 * live page records the page's fingerprint, so callers name the
 * content, not the page, when they drop or move it.
 */
class FingerprintStore
{
  public:
    /** Live state of one content fingerprint. */
    struct Entry
    {
        StoredPage ppn = 0; //!< narrowPage of the live PPN
        std::uint32_t refs = 0;
        std::uint8_t pop = 0;
    };

    /**
     * @param expected_pages expected number of live fingerprints;
     * pre-sizes the hash table so steady-state inserts never rehash
     * (0 leaves the table to grow on demand).
     */
    explicit FingerprintStore(std::uint64_t expected_pages = 0);

    /**
     * Look up live content; counts a dedup lookup. @return the PPN
     * holding this content, or nullopt.
     */
    std::optional<Ppn> lookup(const Fingerprint &fp);

    /**
     * The live entry of @p fp, or nullptr. Counts nothing, so audits
     * can read the store without moving its stats; the pointer is
     * invalidated by any later mutation.
     */
    const Entry *find(const Fingerprint &fp) const;

    /** Register newly programmed (or revived) content with ref 1. */
    void registerPage(const Fingerprint &fp, Ppn ppn);

    /**
     * A further LPN now references this live content; counts a dedup
     * hit. @return the popularity degree after the bump.
     */
    std::uint8_t addReference(const Fingerprint &fp);

    /**
     * An LPN stopped referencing live content @p fp.
     * @return remaining references; 0 means the physical page just
     * became garbage (and the content is dropped from the store).
     */
    std::uint32_t releaseReference(const Fingerprint &fp);

    /** GC moved live content @p fp to page @p to. */
    void relocate(const Fingerprint &fp, Ppn to);

    /** Current references to content @p fp (0 if untracked). */
    std::uint32_t refCount(const Fingerprint &fp) const;

    /** Write-popularity degree of live content (0 if untracked). */
    std::uint8_t popularity(const Fingerprint &fp) const;

    bool contains(const Fingerprint &fp) const;
    std::uint64_t size() const { return byFp.size(); }
    const DedupStats &stats() const { return dstats; }

    /**
     * Register the store's counters and live-entry gauge under
     * "dedup.". Counter storage lives in this store; registrations
     * stay valid for its lifetime.
     */
    void registerStats(StatRegistry &registry) const;

  private:
    FlatMap<Fingerprint, Entry, FingerprintHash> byFp;
    DedupStats dstats;
};

} // namespace zombie

#endif // ZOMBIE_DEDUP_FINGERPRINT_STORE_HH

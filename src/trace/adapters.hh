/**
 * @file
 * Deterministic adapters lowering external block traces into the
 * simulator's 4KB content-trace shape (DESIGN.md section 7.16).
 *
 * The chain, innermost first:
 *
 *  1. ExternalPageSource — splits each raw byte extent into aligned
 *     4KB records and fills content fingerprints: native hashes pass
 *     through (pages past the first of a multi-page extent mix the
 *     hash with the page index), hashless formats synthesize the
 *     fingerprint from (LBA, version). Versions are per-LPN write
 *     counters — optionally wrapping modulo a period, so content
 *     recurs and dedup/DVP behaviour stays meaningful — and the
 *     synthesis is seedless: the same record stream always yields
 *     the same fingerprints.
 *  2. WindowSource / StrideSource — optional skip/limit windowing
 *     and 1-in-N downsampling, both positional and seedless.
 *  3. CompactingSource — remaps the sparse device LBA space onto
 *     dense [0, footprint) in first-appearance order, using the
 *     remap table built by a streaming first-pass scan
 *     (scanExternalTrace), so the simulated drive is sized by the
 *     trace's real footprint instead of its address-space span.
 *
 * Every stage is strictly streaming; the only O(trace)-shaped state
 * is the per-LPN version map and the remap table, both
 * O(footprint-index), never O(records).
 */

#ifndef ZOMBIE_TRACE_ADAPTERS_HH
#define ZOMBIE_TRACE_ADAPTERS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "trace/formats.hh"
#include "trace/source.hh"
#include "trace/summary.hh"
#include "util/flat_map.hh"

namespace zombie
{

/**
 * Synthesize the fingerprint of version @p version of page @p lpn
 * through the zombie::hash engine. Injective over lpn < 2^40 and
 * version < 2^24, so distinct (LBA, version) pairs never alias.
 * A non-zero @p tenant salts the id in the top byte (and narrows
 * versions to < 2^16), so per-tenant content spaces stay disjoint —
 * mirroring MultiTenantTraceGenerator::saltValueId. Tenant 0 is the
 * identity: single-device traces keep their historical bytes.
 */
Fingerprint synthesizeFingerprint(Lpn lpn, std::uint32_t version,
                                  std::uint32_t tenant = 0);

/** Derive page @p page_index's fingerprint of a multi-page extent
 *  from the extent's native hash (page 0 keeps it verbatim). */
Fingerprint pageFingerprint(const Fingerprint &native,
                            std::uint64_t page_index);

/** Split raw extents into 4KB records and fill fingerprints. */
class ExternalPageSource : public TraceSource
{
  public:
    /**
     * @param raw the format parser to lower.
     * @param version_period wrap per-LPN version counters modulo
     *        this period (>= 2 models periodically recurring
     *        content: an overwritten version eventually returns, so
     *        the DVP has zombies to revive); 0 keeps versions
     *        monotone (every write is fresh content).
     * @param device_tenants route each record's source device (MSR
     *        DiskNumber) onto a tenant namespace: devices get dense
     *        tenant ids in first-appearance order (fatal past
     *        kMaxTenants), version counters and synthesized content
     *        become per-tenant, and records carry the tenant id.
     */
    ExternalPageSource(std::unique_ptr<RawTraceSource> raw,
                       std::uint32_t version_period = 0,
                       bool device_tenants = false);

    bool next(TraceRecord &out) override;

  private:
    std::unique_ptr<RawTraceSource> src;
    std::uint32_t period;
    bool deviceTenants;

    /** Extent currently being split. */
    RawIoRecord cur;
    std::uint32_t tenant = 0;
    Lpn page = 0;
    Lpn lastPage = 0;
    std::uint64_t pageIndex = 0;
    bool active = false;

    /** Dense first-appearance tenant id per source device. */
    FlatMap<std::uint32_t, std::uint32_t> devices;

    /** versions[(tenant << 48) | lpn] = writes observed (possibly
     *  wrapped); plain lpn keys when device_tenants is off. */
    FlatMap<Lpn, std::uint32_t> versions;
};

/** Skip the first @p skip records, then emit at most @p limit. */
class WindowSource : public TraceSource
{
  public:
    WindowSource(std::unique_ptr<TraceSource> inner,
                 std::uint64_t skip, std::uint64_t limit)
        : src(std::move(inner)), toSkip(skip), remaining(limit),
          bounded(limit != 0)
    {
    }

    bool next(TraceRecord &out) override;

  private:
    std::unique_ptr<TraceSource> src;
    std::uint64_t toSkip;
    std::uint64_t remaining;
    bool bounded;
};

/** Keep record 0 and every @p stride-th record after it. */
class StrideSource : public TraceSource
{
  public:
    StrideSource(std::unique_ptr<TraceSource> inner,
                 std::uint64_t stride)
        : src(std::move(inner)), stride_(stride ? stride : 1)
    {
    }

    bool next(TraceRecord &out) override;

  private:
    std::unique_ptr<TraceSource> src;
    std::uint64_t stride_;
    std::uint64_t index = 0;
};

/**
 * First-appearance-order LBA remap table. Keys are
 * (tenant << 48) | lpn — plain LPNs for single-tenant traces —
 * and values are final dense LPNs (per-tenant namespace base plus
 * per-tenant first-appearance index).
 */
using LpnRemap = FlatMap<Lpn, Lpn>;

/** Remap each record's LPN through a prebuilt compaction table. */
class CompactingSource : public TraceSource
{
  public:
    CompactingSource(std::unique_ptr<TraceSource> inner,
                     std::shared_ptr<const LpnRemap> remap)
        : src(std::move(inner)), map(std::move(remap))
    {
    }

    bool next(TraceRecord &out) override;

  private:
    std::unique_ptr<TraceSource> src;
    std::shared_ptr<const LpnRemap> map;
};

/** Replay configuration for one external (or native) trace file. */
struct ExternalTraceConfig
{
    std::string path;
    ExternalFormat format = ExternalFormat::GenericCsv;

    /** Window/downsample decorators (post-split record counts). */
    std::uint64_t skip = 0;
    std::uint64_t limit = 0; //!< 0 = unbounded
    std::uint64_t stride = 1;

    /** ExternalPageSource version-wrap period (0 = monotone). */
    std::uint32_t versionPeriod = 0;

    /** Route source devices (MSR DiskNumber) onto tenant
     *  namespaces; requires compact (the namespace layout is built
     *  from per-tenant footprints). */
    bool deviceTenants = false;

    /** Remap the LBA space to dense [0, footprint). The default:
     *  external address spaces are sparse and device-sized. */
    bool compact = true;

    /** Accumulate the full Table-II value-distinct summary during
     *  the scan pass. Its distinct-fingerprint sets are O(distinct
     *  values) heap — disable for 100M-record replays where only
     *  the footprint and record count matter. */
    bool summarize = true;
};

/** Everything the replay needs to size and drive a simulated SSD. */
struct ScannedTrace
{
    /** Rebuilds the full adapter chain (compaction included). */
    TraceSourceFactory factory;

    /** Post-adapter record count (what the factory will emit). */
    std::uint64_t records = 0;

    /** Drive footprint: LPNs in [0, footprintPages) cover every
     *  record the factory emits. */
    std::uint64_t footprintPages = 0;

    /** Table-II style aggregate over the emitted records. */
    TraceSummary summary;

    /**
     * Per-tenant namespace sizes in pages (tenant order), non-empty
     * only when deviceTenants found more than one device. Their
     * prefix sums are the namespace base LPNs the compacted stream
     * already honours — SsdConfig::namespacePages shaped.
     */
    std::vector<std::uint64_t> tenantPages;
};

/**
 * Build the adapter chain for @p cfg sans compaction. Each call
 * opens the file afresh; deterministic, so successive sources
 * produce byte-identical streams.
 */
TraceSourceFactory
makeExternalSourceFactory(const ExternalTraceConfig &cfg);

/**
 * Streaming first pass over @p cfg: counts records, accumulates the
 * Table-II summary, and (when cfg.compact) builds the LBA remap, so
 * the returned factory emits the final simulator-ready stream. Heap
 * cost is O(footprint-index) — the remap, version and summary
 * tables — independent of trace length.
 */
ScannedTrace scanExternalTrace(const ExternalTraceConfig &cfg);

} // namespace zombie

#endif // ZOMBIE_TRACE_ADAPTERS_HH

#include "trace/adapters.hh"

#include <algorithm>
#include <utility>

#include "trace/io.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace zombie
{

namespace
{

/**
 * Keeps synthesized external content ids clear of the generator's
 * value-id regions (tenant salts in the low top-nibble, cold reads
 * at 0xC0.., prefill at 0xF0..). XOR with a constant is a bijection,
 * so it cannot break (lpn, version) injectivity.
 */
constexpr std::uint64_t kExternalIdSalt = 0xe3a1d95b00000000ULL;

constexpr std::uint64_t kGoldenRatio = 0x9e3779b97f4a7c15ULL;

std::unique_ptr<RawTraceSource>
openRawSource(const ExternalTraceConfig &cfg)
{
    switch (cfg.format) {
      case ExternalFormat::FiuBlkio:
        return std::make_unique<FiuBlkioSource>(cfg.path);
      case ExternalFormat::MsrCsv:
        return std::make_unique<MsrCsvSource>(cfg.path);
      case ExternalFormat::GenericCsv:
        return std::make_unique<GenericCsvSource>(cfg.path);
      case ExternalFormat::Native:
        break;
    }
    zombie_panic("native traces bypass the raw-parser layer");
}

} // namespace

Fingerprint
synthesizeFingerprint(Lpn lpn, std::uint32_t version,
                      std::uint32_t tenant)
{
    zombie_assert(lpn < kMaxTracePages,
                  "external LPN exceeds the 2^40 synthesis range");
    std::uint64_t id =
        (static_cast<std::uint64_t>(version) << 40) | lpn;
    if (tenant != 0) {
        // Tenant salt occupies the top byte; versions then live in
        // bits 40..55, so the three fields never overlap and the
        // synthesis stays injective per tenant.
        zombie_assert(version < (1U << 16),
                      "per-tenant synthesis needs version < 2^16");
        zombie_assert(tenant < kMaxTenants,
                      "tenant id exceeds kMaxTenants");
        id |= static_cast<std::uint64_t>(tenant) << 56;
    }
    return Fingerprint::fromValueId(id ^ kExternalIdSalt);
}

Fingerprint
pageFingerprint(const Fingerprint &native, std::uint64_t page_index)
{
    if (page_index == 0)
        return native;
    // Later pages of a multi-page extent get distinct deterministic
    // fingerprints derived from the extent hash and their index.
    return Fingerprint::fromValueId(native.word0() ^
                                    (native.word1() * kGoldenRatio) ^
                                    (page_index * kGoldenRatio));
}

ExternalPageSource::ExternalPageSource(
    std::unique_ptr<RawTraceSource> raw, std::uint32_t version_period,
    bool device_tenants)
    : src(std::move(raw)), period(version_period),
      deviceTenants(device_tenants)
{
}

bool
ExternalPageSource::next(TraceRecord &out)
{
    if (!active) {
        if (!src->next(cur))
            return false;
        // A zero-length request still touches the page at offset.
        const std::uint64_t len =
            std::max<std::uint64_t>(cur.length, 1);
        page = cur.offset / kPageSize;
        lastPage = (cur.offset + len - 1) / kPageSize;
        pageIndex = 0;
        active = true;
        if (deviceTenants) {
            const auto [it, fresh] = devices.insert(
                {cur.device,
                 static_cast<std::uint32_t>(devices.size())});
            if (fresh && devices.size() > kMaxTenants)
                zombie_fatal("trace touches more than ", kMaxTenants,
                             " devices; window or filter it before "
                             "tenant routing");
            tenant = it->second;
        }
    }

    // Tenant-qualified version-map key; plain LPN when routing is
    // off, so single-device replay bytes never change.
    const Lpn vkey =
        (static_cast<Lpn>(tenant) << 48) | page;

    out = TraceRecord{};
    out.arrival = cur.arrival;
    out.op = cur.write ? OpType::Write : OpType::Read;
    out.lpn = page;
    out.tenant = static_cast<std::uint16_t>(tenant);
    out.valueId = TraceRecord::kNoValueId;
    if (cur.hasFingerprint) {
        out.fp = pageFingerprint(cur.fp, pageIndex);
    } else {
        // Hashless formats: name content by (LBA, version). Writes
        // bump the page's version — wrapping modulo the period, so
        // overwritten content eventually recurs — and reads see the
        // version currently on the page (0 if never written).
        std::uint32_t version = 0;
        if (cur.write) {
            std::uint32_t &slot = versions[vkey];
            slot = period ? (slot + 1) % period : slot + 1;
            version = slot;
        } else {
            const auto it = versions.find(vkey);
            if (it != versions.end())
                version = it->second;
        }
        out.fp = synthesizeFingerprint(page, version, tenant);
    }

    ++pageIndex;
    if (page >= lastPage)
        active = false;
    else
        ++page;
    return true;
}

bool
WindowSource::next(TraceRecord &out)
{
    while (toSkip > 0) {
        if (!src->next(out))
            return false;
        --toSkip;
    }
    if (bounded && remaining == 0)
        return false;
    if (!src->next(out))
        return false;
    if (bounded)
        --remaining;
    return true;
}

bool
StrideSource::next(TraceRecord &out)
{
    for (;;) {
        if (!src->next(out))
            return false;
        const bool keep = index % stride_ == 0;
        ++index;
        if (keep)
            return true;
    }
}

bool
CompactingSource::next(TraceRecord &out)
{
    if (!src->next(out))
        return false;
    const Lpn key =
        (static_cast<Lpn>(out.tenant) << 48) | out.lpn;
    const auto it = map->find(key);
    // The remap was built by a scan over this same deterministic
    // stream, so every LPN the replay pass sees must be present.
    zombie_assert(it != map->end(),
                  "LPN absent from the compaction remap");
    out.lpn = it->second;
    return true;
}

TraceSourceFactory
makeExternalSourceFactory(const ExternalTraceConfig &cfg)
{
    return [cfg]() -> std::unique_ptr<TraceSource> {
        std::unique_ptr<TraceSource> src;
        if (cfg.format == ExternalFormat::Native)
            src = std::make_unique<TraceReader>(cfg.path);
        else
            src = std::make_unique<ExternalPageSource>(
                openRawSource(cfg), cfg.versionPeriod,
                cfg.deviceTenants);
        if (cfg.skip > 0 || cfg.limit > 0)
            src = std::make_unique<WindowSource>(std::move(src),
                                                 cfg.skip, cfg.limit);
        if (cfg.stride > 1)
            src = std::make_unique<StrideSource>(std::move(src),
                                                 cfg.stride);
        return src;
    };
}

ScannedTrace
scanExternalTrace(const ExternalTraceConfig &cfg)
{
    if (cfg.deviceTenants && !cfg.compact)
        zombie_fatal("per-device tenant routing needs LBA "
                     "compaction to lay out the namespaces; drop "
                     "--no-compact");
    if (cfg.deviceTenants && cfg.format == ExternalFormat::Native)
        zombie_fatal("native traces already carry tenant ids; "
                     "--msr-disk-tenants applies to raw block "
                     "formats");

    ScannedTrace out;
    const TraceSourceFactory inner = makeExternalSourceFactory(cfg);
    auto remap = std::make_shared<LpnRemap>();
    // A compacting scan counts distinct pages in the remap, so the
    // summarizer keeps no LPN set of its own.
    TraceSummarizer summarizer(cfg.summarize,
                               cfg.summarize && !cfg.compact);

    // Per-tenant footprints; single implicit tenant when device
    // routing is off. Remap values hold per-tenant indices during
    // the scan and get namespace bases added afterwards.
    std::vector<std::uint64_t> tenant_counts;

    auto src = inner();
    TraceRecord rec;
    Lpn max_lpn = 0;
    while (src->next(rec)) {
        ++out.records;
        if (cfg.compact) {
            if (rec.tenant >= tenant_counts.size())
                tenant_counts.resize(rec.tenant + 1, 0);
            const Lpn key =
                (static_cast<Lpn>(rec.tenant) << 48) | rec.lpn;
            if (remap->insert({key, tenant_counts[rec.tenant]}).second)
                ++tenant_counts[rec.tenant];
        } else {
            max_lpn = std::max(max_lpn, rec.lpn);
        }
        summarizer.observe(rec);
    }

    if (tenant_counts.size() > 1) {
        // Lay the tenants out as contiguous namespaces: final LPN =
        // namespace base (prefix sum of earlier footprints) + the
        // per-tenant first-appearance index stored during the scan.
        std::vector<Lpn> bases(tenant_counts.size(), 0);
        for (std::size_t t = 1; t < tenant_counts.size(); ++t)
            bases[t] = bases[t - 1] + tenant_counts[t - 1];
        for (auto &entry : *remap)
            entry.second += bases[entry.first >> 48];
        out.tenantPages = tenant_counts;
    }

    out.footprintPages =
        cfg.compact ? remap->size()
                    : (out.records > 0 ? max_lpn + 1 : 0);
    out.summary = summarizer.finish();
    if (cfg.compact || !cfg.summarize)
        out.summary.distinctLpns = out.footprintPages;

    if (cfg.compact) {
        out.factory = [inner, remap]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<CompactingSource>(inner(), remap);
        };
    } else {
        out.factory = inner;
    }
    return out;
}

} // namespace zombie

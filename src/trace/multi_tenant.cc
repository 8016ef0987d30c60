#include "trace/multi_tenant.hh"

#include "util/logging.hh"

namespace zombie
{

namespace
{

/** Odd 64-bit mixing constant decorrelating per-tenant seeds. */
constexpr std::uint64_t kSeedStride = 0x9E37'79B9'7F4A'7C15ULL;

} // namespace

std::vector<WorkloadProfile>
splitProfileAcrossTenants(const WorkloadProfile &base,
                          std::uint32_t tenants)
{
    if (tenants == 0 || tenants > kMaxTenants) {
        zombie_fatal("tenant count ", tenants, " outside [1, ",
                     kMaxTenants, "]");
    }
    std::vector<WorkloadProfile> profiles;
    profiles.reserve(tenants);
    const std::uint64_t share = base.requests / tenants;
    const std::uint64_t remainder = base.requests % tenants;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        WorkloadProfile p = base;
        p.requests = share + (t < remainder ? 1 : 0);
        p.seed = base.seed + kSeedStride * t;
        if (t > 0)
            p.name = base.name + "-t" + std::to_string(t);
        profiles.push_back(std::move(p));
    }
    return profiles;
}

MultiTenantTraceGenerator::MultiTenantTraceGenerator(
    std::vector<WorkloadProfile> profiles)
{
    if (profiles.empty() || profiles.size() > kMaxTenants) {
        zombie_fatal("multi-tenant generator needs 1..", kMaxTenants,
                     " profiles, got ", profiles.size());
    }
    const auto n = static_cast<std::uint32_t>(profiles.size());
    gens.reserve(n);
    bases.reserve(n);
    sizes.reserve(n);
    Lpn base = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
        gens.emplace_back(std::move(profiles[t]));
        bases.push_back(base);
        sizes.push_back(gens.back().profile().totalLpnSpace());
        base += sizes.back();
    }
    heads.resize(n);
    hasHead.assign(n, false);
    for (std::uint32_t t = 0; t < n; ++t)
        hasHead[t] = refill(t);
}

bool
MultiTenantTraceGenerator::refill(std::uint32_t t)
{
    TraceRecord rec;
    if (!gens[t].next(rec))
        return false;
    rec.tenant = static_cast<std::uint16_t>(t);
    rec.lpn += bases[t];
    if (t > 0 && rec.valueId != TraceRecord::kNoValueId) {
        // Salted ids live in a tenant-private region; the fingerprint
        // must follow so content engines see them as distinct values.
        rec.valueId = saltValueId(t, rec.valueId);
        rec.fp = Fingerprint::fromValueId(rec.valueId);
    }
    heads[t] = rec;
    return true;
}

bool
MultiTenantTraceGenerator::next(TraceRecord &out)
{
    // Linear scan beats a heap at <= kMaxTenants streams, and the
    // lowest-tenant tie-break falls out of the strict '<'.
    const auto n = static_cast<std::uint32_t>(gens.size());
    std::uint32_t best = n;
    for (std::uint32_t t = 0; t < n; ++t) {
        if (!hasHead[t])
            continue;
        if (best == n || heads[t].arrival < heads[best].arrival)
            best = t;
    }
    if (best == n)
        return false;
    out = heads[best];
    hasHead[best] = refill(best);
    return true;
}

std::vector<TraceRecord>
MultiTenantTraceGenerator::generateAll()
{
    std::uint64_t total = 0;
    for (const auto &g : gens)
        total += g.profile().requests;
    std::vector<TraceRecord> records;
    records.reserve(total);
    TraceRecord rec;
    while (next(rec))
        records.push_back(rec);
    return records;
}

std::uint64_t
MultiTenantTraceGenerator::totalLpnSpace() const
{
    return bases.back() + sizes.back();
}

} // namespace zombie

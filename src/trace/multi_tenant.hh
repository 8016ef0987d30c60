/**
 * @file
 * Multi-tenant trace frontend: a deterministic k-way merge of
 * per-tenant synthetic generator streams.
 *
 * Each tenant owns one SyntheticTraceGenerator (its own profile,
 * seed, arrival clock and value universe), modeling independent
 * hosts sharing one drive through NVMe-style namespaces:
 *
 *  - LPNs are offset into disjoint namespace ranges, tenant t's
 *    range starting at the prefix sum of the earlier tenants'
 *    totalLpnSpace(),
 *  - value ids are salted with (tenant << 56) so tenants never
 *    dedup against each other's content (fingerprints are recomputed
 *    from the salted id),
 *  - the merge emits the globally earliest arrival, tie-breaking on
 *    the lower tenant id, so the output is a pure function of the
 *    profiles.
 *
 * A single-tenant instance is the identity: tenant 0 keeps base 0,
 * salt 0 and its generator's exact record stream, so existing
 * single-stream traces and goldens do not move.
 */

#ifndef ZOMBIE_TRACE_MULTI_TENANT_HH
#define ZOMBIE_TRACE_MULTI_TENANT_HH

#include <cstdint>
#include <vector>

#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/record.hh"

namespace zombie
{

/**
 * Derive per-tenant profiles from one base profile: the request
 * budget is split evenly (earlier tenants absorb the remainder, so
 * the drive-wide total is exactly base.requests) and seeds are
 * decorrelated per tenant. Tenant 0 keeps the base seed.
 */
std::vector<WorkloadProfile>
splitProfileAcrossTenants(const WorkloadProfile &base,
                          std::uint32_t tenants);

/** Streaming k-way merge over per-tenant generators. */
class MultiTenantTraceGenerator : public TraceSource
{
  public:
    /** One profile per tenant; 1 <= size <= kMaxTenants (fatal). */
    explicit MultiTenantTraceGenerator(
        std::vector<WorkloadProfile> profiles);

    /**
     * Produce the next merged record (tenant id, namespace-offset
     * LPN, salted value id). @return false when every tenant's
     * request budget is exhausted.
     */
    bool next(TraceRecord &out) override;

    /** Materialize the whole merged trace. */
    std::vector<TraceRecord> generateAll();

    std::uint32_t tenants() const
    {
        return static_cast<std::uint32_t>(gens.size());
    }

    /** First LPN of tenant @p t's namespace. */
    Lpn namespaceBase(std::uint32_t t) const { return bases[t]; }

    /** Pages in tenant @p t's namespace (its totalLpnSpace()). */
    std::uint64_t namespacePages(std::uint32_t t) const
    {
        return sizes[t];
    }

    /** Per-tenant namespace sizes, tenant order (SsdConfig wiring). */
    const std::vector<std::uint64_t> &allNamespacePages() const
    {
        return sizes;
    }

    /** Total LPN space across every namespace (drive sizing). */
    std::uint64_t totalLpnSpace() const;

    /** Tenant @p t's underlying generator (profile, stats). */
    const SyntheticTraceGenerator &generator(std::uint32_t t) const
    {
        return gens[t];
    }

    /**
     * Value-id salt for @p tenant: the identity for tenant 0, else
     * vid + (tenant << 56), keeping every tenant's fresh, popular,
     * and cold-read id regions disjoint from every other tenant's
     * (and from the prefill region, see kMaxTenants).
     */
    static std::uint64_t saltValueId(std::uint32_t tenant,
                                     std::uint64_t vid)
    {
        return tenant == 0
                   ? vid
                   : vid + (static_cast<std::uint64_t>(tenant) << 56);
    }

  private:
    /** Pull tenant @p t's next record into heads[t]; false at end. */
    bool refill(std::uint32_t t);

    std::vector<SyntheticTraceGenerator> gens;
    std::vector<Lpn> bases;
    std::vector<std::uint64_t> sizes;
    std::vector<TraceRecord> heads;
    std::vector<bool> hasHead;
};

} // namespace zombie

#endif // ZOMBIE_TRACE_MULTI_TENANT_HH

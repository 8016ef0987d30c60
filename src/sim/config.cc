#include "sim/config.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace zombie
{

SystemKind
systemKindFromString(const std::string &name)
{
    if (name == "baseline")
        return SystemKind::Baseline;
    if (name == "mq" || name == "dvp" || name == "mq-dvp")
        return SystemKind::MqDvp;
    if (name == "lru")
        return SystemKind::LruDvp;
    if (name == "lx" || name == "lx-ssd")
        return SystemKind::LxSsd;
    if (name == "dedup")
        return SystemKind::Dedup;
    if (name == "dvp+dedup" || name == "dvp-dedup")
        return SystemKind::DvpDedup;
    if (name == "ideal")
        return SystemKind::Ideal;
    zombie_fatal("unknown system '", name,
                 "' (baseline|dvp|lru|lx|dedup|dvp+dedup|ideal)");
}

std::string
toString(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Baseline:
        return "baseline";
      case SystemKind::MqDvp:
        return "dvp";
      case SystemKind::LruDvp:
        return "lru";
      case SystemKind::LxSsd:
        return "lx";
      case SystemKind::Dedup:
        return "dedup";
      case SystemKind::DvpDedup:
        return "dvp+dedup";
      case SystemKind::Ideal:
        return "ideal";
    }
    zombie_panic("unreachable system kind");
}

DvpScope
dvpScopeFromString(const std::string &name)
{
    if (name == "shared")
        return DvpScope::Shared;
    if (name == "partitioned" || name == "part")
        return DvpScope::Partitioned;
    zombie_fatal("unknown DVP scope '", name,
                 "' (shared | partitioned)");
}

std::string
toString(DvpScope scope)
{
    switch (scope) {
      case DvpScope::Shared:
        return "shared";
      case DvpScope::Partitioned:
        return "partitioned";
    }
    zombie_panic("unreachable DVP scope");
}

bool
usesHashEngine(SystemKind kind)
{
    return kind != SystemKind::Baseline;
}

bool
usesDvp(SystemKind kind)
{
    switch (kind) {
      case SystemKind::MqDvp:
      case SystemKind::LruDvp:
      case SystemKind::LxSsd:
      case SystemKind::DvpDedup:
      case SystemKind::Ideal:
        return true;
      default:
        return false;
    }
}

bool
usesDedup(SystemKind kind)
{
    return kind == SystemKind::Dedup || kind == SystemKind::DvpDedup;
}

std::string
SsdConfig::resolvedGcPolicy() const
{
    if (gcPolicy != "auto")
        return gcPolicy;
    return usesDvp(system) ? "popularity" : "greedy";
}

std::vector<Lpn>
SsdConfig::namespaceBases() const
{
    std::vector<Lpn> bases;
    bases.reserve(std::max<std::size_t>(1, namespacePages.size()));
    Lpn base = 0;
    if (namespacePages.empty()) {
        bases.push_back(0);
        return bases;
    }
    for (const std::uint64_t pages : namespacePages) {
        bases.push_back(base);
        base += pages;
    }
    return bases;
}

double
SsdConfig::overProvisioning() const
{
    zombie_assert(logicalPages > 0, "config has no logical space");
    return static_cast<double>(geom.totalPages() - logicalPages) /
           static_cast<double>(logicalPages);
}

SsdConfig
SsdConfig::forFootprint(std::uint64_t footprint_pages,
                        SystemKind system_kind, double op)
{
    if (footprint_pages == 0)
        zombie_fatal("cannot size an SSD for an empty footprint");
    if (op <= 0.0)
        zombie_fatal("over-provisioning must be positive");

    SsdConfig cfg;
    cfg.system = system_kind;
    cfg.logicalPages = footprint_pages;

    const auto physical_target = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(footprint_pages) * (1.0 + op)));

    // Keep the Table I channel/chip structure; shrink dies/planes at
    // simulation scale, then pick blocks-per-plane to fit. A floor of
    // 16 blocks per plane keeps GC watermarks meaningful.
    const std::uint32_t channels = 8, chips = 8, pages_per_block = 256;
    std::uint32_t dies = 4, planes = 2;
    const std::uint32_t min_blocks = 16;
    auto blocks_needed = [&](std::uint32_t d, std::uint32_t p) {
        const std::uint64_t plane_count =
            std::uint64_t(channels) * chips * d * p;
        const std::uint64_t per_plane =
            std::uint64_t(pages_per_block);
        return static_cast<std::uint32_t>(
            (physical_target + plane_count * per_plane - 1) /
            (plane_count * per_plane));
    };
    while ((dies > 1 || planes > 1) &&
           blocks_needed(dies, planes) < min_blocks) {
        if (planes > 1)
            planes /= 2;
        else
            dies /= 2;
    }
    const std::uint32_t blocks =
        std::max(min_blocks, blocks_needed(dies, planes));
    cfg.geom = Geometry(channels, chips, dies, planes, blocks,
                        pages_per_block);

    // The structural floor (16 blocks/plane across 8x8 chips) can
    // leave the drive much larger than the trace footprint. Export a
    // logical space sized to the drive instead, and precondition it:
    // the region beyond the trace footprint holds static cold data,
    // so utilization — and therefore GC pressure — matches the
    // configured over-provisioning no matter the trace size.
    const auto op_logical = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(cfg.geom.totalPages()) /
                   (1.0 + op)));
    cfg.logicalPages = std::max(footprint_pages, op_logical);
    cfg.validate();
    return cfg;
}

SsdConfig
SsdConfig::forProfile(const WorkloadProfile &profile,
                      SystemKind system_kind, double op)
{
    return forFootprint(profile.totalLpnSpace(), system_kind, op);
}

std::string
SsdConfig::describe() const
{
    std::ostringstream oss;
    oss << toString(system) << ": " << geom.channels() << "ch x "
        << geom.chipsPerChannel() << "chips x " << geom.diesPerChip()
        << "dies x " << geom.planesPerDie() << "planes x "
        << geom.blocksPerPlane() << "blk x " << geom.pagesPerBlock()
        << "pg (" << geom.capacityBytes() / (1024 * 1024)
        << " MiB physical, OP "
        << static_cast<int>(std::lround(overProvisioning() * 100))
        << "%, gc=" << resolvedGcPolicy();
    if (queueDepth != 1)
        oss << ", qd=" << queueDepth;
    if (tenants > 1) {
        oss << ", tenants=" << tenants << " arbiter="
            << toString(arbiter);
        if (!arbiterWeights.empty()) {
            oss << "[";
            for (std::size_t t = 0; t < arbiterWeights.size(); ++t)
                oss << (t ? ":" : "") << arbiterWeights[t];
            oss << "]";
        }
        if (dvpScope == DvpScope::Partitioned && usesDvp(system))
            oss << " dvp-scope=partitioned";
    }
    if (system == SystemKind::Ideal)
        oss << ", pool=unbounded";
    else if (usesDvp(system))
        oss << ", pool=" << mq.capacity << " entries";
    oss << ")";
    return oss.str();
}

void
SsdConfig::validate() const
{
    // First, so a drive too large for the 32-bit page tables stops
    // here, before anything sized by it allocates.
    checkDrivePages(geom.totalPages());
    if (logicalPages == 0)
        zombie_fatal("SsdConfig: logicalPages must be > 0");
    if (logicalPages >= geom.totalPages())
        zombie_fatal("SsdConfig: no over-provisioning space");
    if (prefillFraction < 0.0 || prefillFraction > 1.0)
        zombie_fatal("SsdConfig: prefillFraction out of [0,1]");
    if (gcPagesPerStep == 0)
        zombie_fatal("SsdConfig: gcPagesPerStep must be > 0");
    if (usesDvp(system) && system != SystemKind::Ideal &&
        mq.capacity == 0) {
        zombie_fatal("SsdConfig: system ", toString(system),
                     " needs a pool capacity > 0 (only ideal is "
                     "unbounded)");
    }
    if (queueDepth == 0)
        zombie_fatal("SsdConfig: queueDepth must be >= 1");
    if (queueDepth > 65536)
        zombie_fatal("SsdConfig: queueDepth ", queueDepth,
                     " exceeds the 65536-tag ceiling");
    if (gcPolicy != "auto" && gcPolicy != "greedy" &&
        gcPolicy != "popularity") {
        zombie_fatal("SsdConfig: bad gcPolicy '", gcPolicy, "'");
    }
    if (tenants == 0 || tenants > kMaxTenants) {
        zombie_fatal("SsdConfig: tenants ", tenants,
                     " outside [1, ", kMaxTenants, "]");
    }
    if (!arbiterWeights.empty() && arbiterWeights.size() != tenants) {
        zombie_fatal("SsdConfig: ", arbiterWeights.size(),
                     " arbiter weights for ", tenants, " tenants");
    }
    for (const std::uint32_t w : arbiterWeights) {
        if (w == 0)
            zombie_fatal("SsdConfig: arbiter weights must be > 0");
    }
    if (tenants > 1) {
        if (namespacePages.size() != tenants) {
            zombie_fatal("SsdConfig: ", namespacePages.size(),
                         " namespace sizes for ", tenants,
                         " tenants");
        }
        std::uint64_t total = 0;
        for (const std::uint64_t pages : namespacePages) {
            if (pages == 0)
                zombie_fatal("SsdConfig: empty namespace");
            total += pages;
        }
        if (total > logicalPages) {
            zombie_fatal("SsdConfig: namespaces cover ", total,
                         " pages but the drive exports only ",
                         logicalPages);
        }
    }
}

} // namespace zombie

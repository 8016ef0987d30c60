#include "sim/experiment.hh"

#include <algorithm>
#include <fstream>

#include "trace/generator.hh"
#include "trace/multi_tenant.hh"
#include "trace/prefetch.hh"
#include "util/logging.hh"

namespace zombie
{

namespace
{

/** Open @p path for writing; fatal (user error) when that fails. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        zombie_fatal("cannot write telemetry output: ", path);
    return os;
}

/** Write the run's requested telemetry artifacts (post-drain). */
void
writeTelemetry(Ssd &ssd, const ExperimentOptions &opts)
{
    if (!opts.statsCsv.empty() || !opts.statsJson.empty()) {
        const EpochSampler *sampler = ssd.sampler();
        if (!sampler)
            zombie_fatal("epoch series requested without "
                         "--stats-interval");
        if (!opts.statsCsv.empty()) {
            auto os = openOutput(opts.statsCsv);
            sampler->writeCsv(os);
        }
        if (!opts.statsJson.empty()) {
            auto os = openOutput(opts.statsJson);
            sampler->writeJson(os);
        }
    }
    if (!opts.traceOut.empty()) {
        auto os = openOutput(opts.traceOut);
        ssd.tracer()->writeJson(os);
    }
    if (!opts.statsDump.empty()) {
        auto os = openOutput(opts.statsDump);
        ssd.statRegistry().dump(os);
    }
}

/** Apply the option knobs shared by every entry point. */
void
applyOptions(SsdConfig &cfg, const ExperimentOptions &opts)
{
    cfg.mq.capacity = opts.poolCapacity;
    cfg.mq.numQueues = opts.mqQueues;
    cfg.gcPolicy = opts.gcPolicy;
    cfg.queueDepth = opts.queueDepth;
    const ArbiterSpec arb = parseArbiterSpec(opts.arbiter);
    cfg.arbiter = arb.kind;
    cfg.arbiterWeights = arb.weights;
    cfg.dvpScope = dvpScopeFromString(opts.dvpScope);
    cfg.statsInterval = opts.statsInterval;
    cfg.opTrace = !opts.traceOut.empty();
    cfg.traceLimit = opts.traceLimit;
}

} // namespace

SimResult
runSystemOnProfile(const WorkloadProfile &profile, SystemKind system,
                   const ExperimentOptions &opts)
{
    if (opts.tenants > 1) {
        return runTenantProfiles(
            splitProfileAcrossTenants(profile, opts.tenants), system,
            opts);
    }

    SyntheticTraceGenerator gen(profile);

    SsdConfig cfg = SsdConfig::forProfile(profile, system);
    applyOptions(cfg, opts);
    if (opts.tweak)
        opts.tweak(cfg);

    Ssd ssd(cfg);
    ssd.run(gen);
    SimResult result = ssd.result();
    writeTelemetry(ssd, opts);
    return result;
}

SimResult
runSystemOnScannedTrace(const ScannedTrace &scan, SystemKind system,
                        const ExperimentOptions &opts)
{
    SsdConfig cfg = SsdConfig::forFootprint(
        std::max<std::uint64_t>(scan.footprintPages, 1), system);
    applyOptions(cfg, opts);
    if (scan.tenantPages.size() > 1) {
        // Device-routed trace: the scan laid the namespaces out.
        cfg.tenants =
            static_cast<std::uint32_t>(scan.tenantPages.size());
        cfg.namespacePages = scan.tenantPages;
    }
    if (opts.tweak)
        opts.tweak(cfg);

    Ssd ssd(cfg);
    // Decode ahead on a producer thread (order-preserving, so the
    // engine sees the identical record stream either way).
    const auto src = maybePrefetch(
        scan.factory(), static_cast<std::size_t>(opts.prefetchBatch));
    ssd.run(*src);
    SimResult result = ssd.result();
    writeTelemetry(ssd, opts);
    return result;
}

SimResult
runTenantProfiles(const std::vector<WorkloadProfile> &profiles,
                  SystemKind system, const ExperimentOptions &opts)
{
    MultiTenantTraceGenerator gen(profiles);

    // Size the drive for the combined footprint; each namespace is
    // a contiguous LPN range at its tenant's base.
    SsdConfig cfg =
        SsdConfig::forFootprint(gen.totalLpnSpace(), system);
    applyOptions(cfg, opts);
    cfg.tenants = gen.tenants();
    cfg.namespacePages = gen.allNamespacePages();
    if (opts.tweak)
        opts.tweak(cfg);

    Ssd ssd(cfg);
    ssd.run(gen);
    SimResult result = ssd.result();
    writeTelemetry(ssd, opts);
    return result;
}

SimResult
runSystem(Workload workload, SystemKind system,
          const ExperimentOptions &opts)
{
    const WorkloadProfile profile = WorkloadProfile::preset(
        workload, opts.day, opts.requests, opts.seed);
    return runSystemOnProfile(profile, system, opts);
}

Comparison
compareSystems(Workload workload,
               const std::vector<SystemKind> &systems,
               const ExperimentOptions &opts)
{
    Comparison cmp;
    cmp.baseline = runSystem(workload, SystemKind::Baseline, opts);
    for (const SystemKind kind : systems)
        cmp.systems.push_back(runSystem(workload, kind, opts));
    return cmp;
}

} // namespace zombie

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

/** Set a numeric field, range-checked to its type or to Range. */
template <auto Field, auto... Range>
std::string
number(ExperimentOptions &opts, std::string_view text)
{
    return parseNumber(text, opts.*Field, Range...);
}

/** Set a text field (an output path) verbatim. */
template <auto Field>
std::string
text(ExperimentOptions &opts, std::string_view value)
{
    opts.*Field = std::string(value);
    return {};
}

using Opts = ExperimentOptions;

constexpr std::string_view kGcPolicies = "auto|greedy|popularity";

/**
 * The table. Order matters twice: experimentOptions() applies rows
 * in this order (requests before pool-frac, which scales by it), and
 * grid axes nest in it, outermost first, after the system axis.
 */
constexpr ExperimentKey kKeys[] = {
    {"workload", "mail",
     "workload preset: web|home|mail|hadoop|trans|desktop", nullptr,
     nullptr},
    {"day", "1", "trace day of the workload preset (1-based)", nullptr,
     number<&Opts::day, 1, std::numeric_limits<int>::max()>},
    {"requests", nullptr, "trace length in requests", nullptr,
     number<&Opts::requests>},
    {"seed", "42", "trace generator seed", nullptr, number<&Opts::seed>},
    {"queue-depth", "1",
     "host-interface queue depth (NCQ-style dispatch contexts; 1 = "
     "the classic serialized dispatcher)",
     "depth", number<&Opts::queueDepth>},
    {"gc", "auto",
     "GC victim policy: auto|greedy|popularity",
     "gc",
     [](Opts &opts, std::string_view v) -> std::string {
         opts.gcPolicy = std::string(v);
         const std::string list = "|" + std::string(kGcPolicies) + "|";
         if (list.find("|" + opts.gcPolicy + "|") != std::string::npos)
             return {};
         return "unknown gc policy '" + opts.gcPolicy + "' (" +
                std::string(kGcPolicies) + ")";
     }},
    {"pool", nullptr, "dead-value pool entries", "pool",
     number<&Opts::poolCapacity>},
    {"pool-frac", nullptr,
     "dead-value pool entries as a fraction of the trace length "
     "(0.02 ~ the paper's 200K entries at day-trace scale)",
     nullptr,
     [](Opts &opts, std::string_view v) {
         double frac = 0.0;
         std::string err = parseNumber(v, frac, 0.0, 1.0);
         opts.poolCapacity = scaledPool(opts.requests, frac);
         return err;
     }},
    {"op", "0.15", "over-provisioning fraction", nullptr,
     number<&Opts::op, 0.0, 10.0>},
    {"tenants", "1",
     "tenant count; >1 splits a generated workload into per-namespace "
     "streams",
     nullptr, number<&Opts::tenants, std::uint32_t{1}, kMaxTenants>},
    {"arbiter", "rr", "submission-queue arbiter: rr | wrr:<w0,w1,..>",
     nullptr,
     [](Opts &opts, std::string_view v) {
         opts.arbiter = std::string(v);
         parseArbiterSpec(opts.arbiter); // fatal when malformed
         return std::string();
     }},
    {"dvp-scope", "shared", "dead-value pool tenancy: shared | partitioned",
     nullptr,
     [](Opts &opts, std::string_view v) {
         opts.dvpScope = std::string(v);
         dvpScopeFromString(opts.dvpScope); // fatal when unknown
         return std::string();
     }},
    {"prefetch", "4096",
     "decode-ahead batch size for streamed replay (0 = decode inline "
     "on the simulation thread; byte-identical either way)",
     nullptr, number<&Opts::prefetchBatch>},
    {"stats-interval", "0",
     "epoch-sampler interval in simulated microseconds (0 = off)",
     nullptr,
     [](Opts &opts, std::string_view v) {
         double us = 0.0;
         std::string err = parseNumber(v, us, 0.0, 1e12);
         opts.statsInterval = ticksFromUs(us);
         return err;
     }},
    {"stats-csv", "", "epoch series CSV output (benches tag it per cell)",
     nullptr, text<&Opts::statsCsv>},
    {"stats-json", "", "epoch series JSON output (benches tag it per cell)",
     nullptr, text<&Opts::statsJson>},
    {"trace-out", "",
     "Perfetto trace of flash-op spans (benches tag it per cell)", nullptr,
     text<&Opts::traceOut>},
    {"span-limit", "1000000", "maximum spans kept per op trace", nullptr,
     number<&Opts::traceLimit>},
    {"dump-stats", "",
     "end-of-run stat-registry dump (benches tag it per cell)", nullptr,
     text<&Opts::statsDump>},
    {"jobs", "1",
     "cells to run concurrently (0 = one per hardware thread); "
     "results are byte-identical for any value",
     nullptr, nullptr},
    {"csv", "", "also write the series to this CSV file", nullptr, nullptr},
    {"wall-json", "", "also write wall time and requests/s as JSON here",
     nullptr, nullptr},
};

/** Open @p path for writing; fatal (user error) when that fails. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        zombie_fatal("cannot write telemetry output: ", path);
    return os;
}

} // namespace

std::uint64_t
scaledPool(std::uint64_t requests, double frac)
{
    return std::max<std::uint64_t>(
        256,
        static_cast<std::uint64_t>(frac *
                                   static_cast<double>(requests)));
}

std::span<const ExperimentKey>
experimentKeys()
{
    return kKeys;
}

const ExperimentKey &
experimentKey(std::string_view name)
{
    for (const ExperimentKey &key : kKeys) {
        if (name == key.name)
            return key;
    }
    zombie_panic("no experiment key --", name);
}

void
addExperimentKeys(ArgParser &args, std::initializer_list<KeyUse> keys)
{
    for (const KeyUse &use : keys) {
        const ExperimentKey &key = experimentKey(use.name);
        // Exactly one of the table and the program sets the default.
        zombie_assert((key.def == nullptr) != (use.def == nullptr),
                      "--", key.name,
                      key.def ? " has a table-wide default"
                              : " needs a program default");
        args.addOption(key.name, key.def ? key.def : use.def,
                       key.help);
    }
}

ExperimentOptions
experimentOptions(const ArgParser &args)
{
    ExperimentOptions opts;
    for (const ExperimentKey &key : kKeys) {
        if (!key.set || !args.has(key.name))
            continue;
        if (const std::string err =
                key.set(opts, args.getString(key.name));
            !err.empty())
            zombie_fatal("--", key.name, ": ", err);
    }
    return opts;
}

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

SsdConfig
driveConfig(std::uint64_t footprint_pages, SystemKind system,
            const ExperimentOptions &opts,
            const std::vector<std::uint64_t> &namespace_pages)
{
    SsdConfig cfg =
        SsdConfig::forFootprint(footprint_pages, system, opts.op);
    cfg.mq.capacity = opts.poolCapacity;
    cfg.gcPolicy = opts.gcPolicy;
    cfg.queueDepth = opts.queueDepth;
    const ArbiterSpec arb = parseArbiterSpec(opts.arbiter);
    cfg.arbiter = arb.kind;
    cfg.arbiterWeights = arb.weights;
    cfg.dvpScope = dvpScopeFromString(opts.dvpScope);
    cfg.statsInterval = opts.statsInterval;
    cfg.opTrace = !opts.traceOut.empty();
    cfg.traceLimit = opts.traceLimit;
    if (namespace_pages.size() > 1) {
        cfg.tenants = static_cast<std::uint32_t>(namespace_pages.size());
        cfg.namespacePages = namespace_pages;
    }
    if (opts.tweak)
        opts.tweak(cfg);
    return cfg;
}

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
    Ssd ssd(driveConfig(profile.totalLpnSpace(), system, opts));
    ssd.run(gen);
    SimResult result = ssd.result();
    writeTelemetry(ssd, opts);
    return result;
}

SimResult
runSystemOnScannedTrace(const ScannedTrace &scan, SystemKind system,
                        const ExperimentOptions &opts)
{
    // A device-routed scan lays the tenant namespaces out itself.
    Ssd ssd(driveConfig(std::max<std::uint64_t>(scan.footprintPages, 1),
                        system, opts, scan.tenantPages));
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
    Ssd ssd(driveConfig(gen.totalLpnSpace(), system, opts,
                        gen.allNamespacePages()));
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

#include "sim/ssd.hh"

#include <algorithm>

#include "dvp/lx_dvp.hh"
#include "dvp/mq_dvp.hh"
#include "dvp/partitioned_dvp.hh"
#include "util/logging.hh"

namespace zombie
{

namespace
{

/** Prefill content ids live far above any trace value id. */
constexpr std::uint64_t kPrefillIdBase = 0xF000'0000'0000'0000ULL;

double
reduction(std::uint64_t sys, std::uint64_t base)
{
    if (base == 0)
        return 0.0;
    return 1.0 - static_cast<double>(sys) / static_cast<double>(base);
}

double
improvement(double sys, double base)
{
    if (base <= 0.0)
        return 0.0;
    return 1.0 - sys / base;
}

} // namespace

StatSet
SimResult::toStatSet() const
{
    StatSet s;
    s.set("requests", static_cast<double>(requests));
    s.set("reads", static_cast<double>(reads));
    s.set("reads.unmapped", static_cast<double>(unmappedReads));
    s.set("writes", static_cast<double>(writes));
    s.set("flash.programs", static_cast<double>(flashPrograms));
    s.set("flash.host_programs", static_cast<double>(hostPrograms));
    s.set("flash.reads", static_cast<double>(flashReads));
    s.set("flash.erases", static_cast<double>(flashErases));
    s.set("flash.revivals", static_cast<double>(revivals));
    s.set("gc.invocations", static_cast<double>(gcInvocations));
    s.set("gc.relocations", static_cast<double>(gcRelocations));
    s.set("dvp.revivals", static_cast<double>(dvpRevivals));
    s.set("dedup.hits", static_cast<double>(dedupHits));
    s.set("latency.read.mean_us", readLatency.mean() / 1000.0);
    s.set("latency.write.mean_us", writeLatency.mean() / 1000.0);
    s.set("latency.all.mean_us", allLatency.mean() / 1000.0);
    s.set("latency.all.p99_us",
          static_cast<double>(allLatency.percentile(0.99)) / 1000.0);
    s.set("makespan_ms", static_cast<double>(makespan) / 1e6);
    s.set("ctrl.queue_depth", static_cast<double>(queueDepth));
    s.set("ctrl.blocked_admissions",
          static_cast<double>(hostQueue.blockedAdmissions));
    s.set("ctrl.admission_wait_mean_us",
          hostQueue.meanAdmissionWaitUs());
    s.set("ctrl.max_waiting", static_cast<double>(hostQueue.maxWaiting));
    s.set("ctrl.ooo_completions", static_cast<double>(oooCompletions));
    s.set("nand.max_die_backlog", static_cast<double>(maxDieBacklog));
    s.set("wear.max_erase", static_cast<double>(wear.maxErase));
    s.set("wear.mean_erase", wear.meanErase);
    s.set("wear.skew", static_cast<double>(wear.skew()));
    s.set("cache.hit_rate", readCache.hitRate());
    s.set("cache.hits", static_cast<double>(readCache.hits));
    if (hasDvp) {
        s.set("dvp.hit_rate", dvpStats.hitRate());
        s.set("dvp.capacity_evictions",
              static_cast<double>(dvpStats.capacityEvictions));
        s.set("dvp.gc_evictions",
              static_cast<double>(dvpStats.gcEvictions));
    }
    if (hasDedup)
        s.set("dedup.hit_rate", dedupStats.hitRate());
    for (std::size_t t = 0; t < tenantResults.size(); ++t) {
        const TenantResult &tr = tenantResults[t];
        const std::string p = "tenant." + std::to_string(t) + ".";
        s.set(p + "submitted", static_cast<double>(tr.submitted));
        s.set(p + "reads", static_cast<double>(tr.reads));
        s.set(p + "writes", static_cast<double>(tr.writes));
        s.set(p + "blocked_admissions",
              static_cast<double>(tr.blockedAdmissions));
        s.set(p + "gc_collateral_ticks",
              static_cast<double>(tr.gcCollateralTicks));
        s.set(p + "latency.read.p99_us",
              static_cast<double>(tr.readLatency.percentile(0.99)) /
                  1000.0);
        s.set(p + "latency.write.p99_us",
              static_cast<double>(tr.writeLatency.percentile(0.99)) /
                  1000.0);
    }
    return s;
}

double
writeReduction(const SimResult &sys, const SimResult &base)
{
    return reduction(sys.flashPrograms, base.flashPrograms);
}

double
eraseReduction(const SimResult &sys, const SimResult &base)
{
    return reduction(sys.flashErases, base.flashErases);
}

double
meanLatencyImprovement(const SimResult &sys, const SimResult &base)
{
    return improvement(sys.allLatency.mean(), base.allLatency.mean());
}

double
tailLatencyImprovement(const SimResult &sys, const SimResult &base)
{
    return improvement(
        static_cast<double>(sys.allLatency.percentile(0.99)),
        static_cast<double>(base.allLatency.percentile(0.99)));
}

namespace
{

/** One pool of the configured scheme with @p entries capacity. */
std::unique_ptr<DeadValuePool>
makeSinglePool(const SsdConfig &cfg, std::uint64_t entries)
{
    switch (cfg.system) {
      case SystemKind::MqDvp:
      case SystemKind::DvpDedup: {
        MqDvpConfig mq = cfg.mq;
        mq.capacity = entries;
        return std::make_unique<MqDvp>(mq);
      }
      case SystemKind::LruDvp:
        return std::make_unique<MqDvp>(
            MqDvpConfig{.capacity = entries, .numQueues = 1});
      case SystemKind::LxSsd:
        return std::make_unique<LxDvp>(entries);
      case SystemKind::Ideal:
        return std::make_unique<MqDvp>(
            MqDvpConfig{.capacity = 0, .numQueues = 1});
      default:
        return nullptr;
    }
}

} // namespace

std::unique_ptr<DeadValuePool>
Ssd::makePool(const SsdConfig &cfg)
{
    if (cfg.tenants > 1 && cfg.dvpScope == DvpScope::Partitioned &&
        usesDvp(cfg.system)) {
        // Private per-tenant pools over equal slices of the shared
        // budget (the last tenant absorbs the remainder), routed by
        // namespace LPN range.
        std::vector<std::unique_ptr<DeadValuePool>> pools;
        pools.reserve(cfg.tenants);
        const std::uint64_t share =
            std::max<std::uint64_t>(1, cfg.mq.capacity / cfg.tenants);
        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            const bool last = t + 1 == cfg.tenants;
            const std::uint64_t entries =
                last ? std::max<std::uint64_t>(
                           share, cfg.mq.capacity - share * t)
                     : share;
            pools.push_back(makeSinglePool(cfg, entries));
        }
        return std::make_unique<PartitionedDvp>(std::move(pools),
                                                cfg.namespaceBases());
    }
    return makeSinglePool(cfg, cfg.mq.capacity);
}

Ssd::Ssd(SsdConfig config)
    : cfg((config.validate(), std::move(config))),
      flashArray(cfg.geom),
      pool(makePool(cfg)),
      store(usesDedup(cfg.system)
                ? std::make_unique<FingerprintStore>(cfg.logicalPages)
                : nullptr),
      ftl_(flashArray,
           FtlConfig{.logicalPages = cfg.logicalPages,
                     .gcSoftWater = cfg.gcSoftWater,
                     .gcLowWater = cfg.gcLowWater,
                     .gcPagesPerStep = cfg.gcPagesPerStep,
                     .gcPolicy = cfg.resolvedGcPolicy(),
                     .gcPopWeight = cfg.gcPopWeight,
                     .hotColdSeparation = cfg.hotColdSeparation,
                     .hotThreshold = cfg.hotThreshold}),
      resources(cfg.geom, cfg.timing),
      cache(cfg.readCacheEntries),
      controller_(cfg, ftl_, resources, cache, engine)
{
    if (pool)
        ftl_.attachDvp(pool.get());
    if (store)
        ftl_.attachDedup(store.get());

    // Dynamic write allocation: steer host writes toward idle dies,
    // read from the same busy-until table dieFreeAtIndex serves.
    ftl_.setDieLoadView(resources.dieBusyTable(),
                        cfg.geom.planesPerDie());
    // Group-min accelerator over the same table: the least-busy scan
    // reads (dies / group) entries instead of every die, with the
    // model keeping the minima current per scheduled op.
    ftl_.setDieLoadGroups(
        resources.dieGroupMinTable(),
        static_cast<std::uint32_t>(resources.dieGroupDies()));

    // Telemetry root: every component publishes its counters into
    // one registry. Registration happens once here; nothing on the
    // request path ever calls into the registry.
    flashArray.registerStats(registry_);
    resources.registerStats(registry_);
    ftl_.registerStats(registry_);
    cache.registerStats(registry_);
    controller_.registerStats(registry_);
    if (pool)
        pool->registerStats(registry_);
    if (store)
        store->registerStats(registry_);

    if (cfg.statsInterval > 0) {
        sampler_ = std::make_unique<EpochSampler>(registry_,
                                                  cfg.statsInterval);
        controller_.attachSampler(sampler_.get());
    }
    if (cfg.opTrace) {
        tracer_ = std::make_unique<PerfettoTraceWriter>(cfg.traceLimit);
        resources.setTraceSink(tracer_.get());
    }
}

void
Ssd::prefill()
{
    zombie_assert(!prefilled && !measuring,
                  "prefill must run once, before any request");
    const auto target = static_cast<std::uint64_t>(
        cfg.prefillFraction * static_cast<double>(cfg.logicalPages));
    FlashStepBuffer scratch; // untimed: the steps are discarded
    for (std::uint64_t lpn = 0; lpn < target; ++lpn) {
        const Fingerprint fp =
            Fingerprint::fromValueId(kPrefillIdBase | lpn);
        ftl_.write(lpn, fp, scratch);
    }
    prefilled = true;
}

void
Ssd::beginMeasurement(Tick first_arrival)
{
    measuring = true;
    flashBase = flashArray.counters();
    ftlBase = ftl_.stats();
    // The sampler baselines here too, so prefill activity is excluded
    // and per-epoch delta sums match the SimResult's base-subtracted
    // counters exactly.
    if (sampler_)
        sampler_->begin(first_arrival);
}

void
Ssd::process(const TraceRecord &rec)
{
    if (!measuring)
        beginMeasurement(rec.arrival);
    controller_.submit(rec);
}

void
Ssd::drain()
{
    controller_.drain();
}

void
Ssd::run(TraceSource &source)
{
    if (!prefilled && cfg.prefillFraction > 0.0)
        prefill();
    TraceRecord rec;
    while (source.next(rec))
        process(rec);
    drain();
}

SimResult
Ssd::result()
{
    drain();

    const ControllerStats &cs = controller_.stats();
    if (sampler_)
        sampler_->finish(std::max(cs.lastCompletion, engine.now()));
    SimResult r;
    r.system = toString(cfg.system);
    r.requests = cs.reads + cs.writes;
    r.reads = cs.reads;
    r.writes = cs.writes;

    const FlashCounters &fc = flashArray.counters();
    const FtlStats &fs = ftl_.stats();
    r.flashPrograms = fc.programs - flashBase.programs;
    r.flashReads = fc.reads - flashBase.reads;
    r.flashErases = fc.erases - flashBase.erases;
    r.revivals = fc.revivals - flashBase.revivals;
    r.hostPrograms = fs.programs - ftlBase.programs;
    r.gcInvocations = fs.gcInvocations - ftlBase.gcInvocations;
    r.gcRelocations = fs.gcRelocations - ftlBase.gcRelocations;
    r.dvpRevivals = fs.dvpRevivals - ftlBase.dvpRevivals;
    r.dedupHits = fs.dedupHits - ftlBase.dedupHits;
    r.unmappedReads = fs.unmappedReads - ftlBase.unmappedReads;

    r.readLatency = cs.readLatency;
    r.writeLatency = cs.writeLatency;
    r.allLatency = cs.allLatency;
    r.makespan = cs.lastCompletion > cs.firstArrival
                     ? cs.lastCompletion - cs.firstArrival
                     : 0;

    r.queueDepth = controller_.queueDepth();
    r.hostQueue = controller_.hostStats();
    r.tenants = controller_.tenants();
    if (r.tenants > 1) {
        r.tenantResults.reserve(r.tenants);
        for (std::uint32_t t = 0; t < r.tenants; ++t)
            r.tenantResults.push_back(controller_.tenantResult(t));
    }
    r.oooCompletions = cs.oooCompletions;
    r.maxDieBacklog = resources.maxDieBacklog();
    r.events = engine.dispatched();

    r.wear = ftl_.wearSummary();
    r.readCache = cache.stats();

    if (pool) {
        r.hasDvp = true;
        r.dvpStats = pool->stats();
    }
    if (store) {
        r.hasDedup = true;
        r.dedupStats = store->stats();
    }
    return r;
}

} // namespace zombie

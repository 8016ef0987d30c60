/**
 * @file
 * The simulated SSD: functional FTL + event-driven timing pipeline.
 *
 * Ssd is thin wiring: it owns the functional components (FTL, flash
 * array, content engines), the timing components (EventEngine,
 * ResourceModel, read cache) and the Controller pipeline that
 * connects them (see sim/controller.hh for the stage-by-stage
 * model). Each request is admitted at its arrival tick once the
 * engine has serviced everything before it; Ssd assembles the run's
 * SimResult from the controller, FTL and flash-array counters.
 */

#ifndef ZOMBIE_SIM_SSD_HH
#define ZOMBIE_SIM_SSD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dedup/fingerprint_store.hh"
#include "dvp/dead_value_pool.hh"
#include "ftl/ftl.hh"
#include "ftl/wear.hh"
#include "nand/flash_array.hh"
#include "nand/resource_model.hh"
#include "sim/config.hh"
#include "sim/controller.hh"
#include "sim/event.hh"
#include "sim/host_queue.hh"
#include "sim/read_cache.hh"
#include "telemetry/epoch_sampler.hh"
#include "telemetry/perfetto_trace.hh"
#include "telemetry/stat_registry.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "util/stats.hh"

namespace zombie
{

/** Everything a bench needs from one simulation run. */
struct SimResult
{
    std::string system;

    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t unmappedReads = 0;

    /** Flash activity during the measured phase (prefill excluded). */
    std::uint64_t flashPrograms = 0; //!< host + GC-relocation programs
    std::uint64_t hostPrograms = 0;  //!< host-caused programs only
    std::uint64_t flashReads = 0;
    std::uint64_t flashErases = 0;
    std::uint64_t revivals = 0;

    std::uint64_t gcInvocations = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t dvpRevivals = 0;
    std::uint64_t dedupHits = 0;
    ReadCacheStats readCache;

    LatencyHistogram readLatency;
    LatencyHistogram writeLatency;
    LatencyHistogram allLatency;

    Tick makespan = 0;

    /** Controller-pipeline observations. */
    std::uint32_t queueDepth = 1;
    HostQueueStats hostQueue;
    std::uint64_t oooCompletions = 0;
    std::uint64_t maxDieBacklog = 0;

    /**
     * Multi-tenant frontend observations. tenantResults holds one
     * slice per tenant when tenants > 1, empty otherwise — a
     * single-tenant run's StatSet stays byte-identical.
     */
    std::uint32_t tenants = 1;
    std::vector<TenantResult> tenantResults;

    /**
     * Engine events dispatched over the run (harness-throughput side
     * channel; deliberately absent from toStatSet so pinned stdout
     * tables stay byte-identical across engine changes).
     */
    std::uint64_t events = 0;

    /** Erase-count statistics at end of run (device lifetime). */
    WearSummary wear;

    bool hasDvp = false;
    DvpStats dvpStats;
    bool hasDedup = false;
    DedupStats dedupStats;

    /** Flat dump for EXPERIMENTS.md style reporting. */
    StatSet toStatSet() const;
};

/** 1 - sys/base, clamped to 0 when base is empty. */
double writeReduction(const SimResult &sys, const SimResult &base);
double eraseReduction(const SimResult &sys, const SimResult &base);
double meanLatencyImprovement(const SimResult &sys,
                              const SimResult &base);
double tailLatencyImprovement(const SimResult &sys,
                              const SimResult &base);

/** One simulated drive servicing one trace. */
class Ssd
{
  public:
    explicit Ssd(SsdConfig config);

    /**
     * Pre-write prefillFraction of the logical space with unique
     * content, untimed, so GC operates at realistic utilization
     * during the measured phase. Must run before process().
     */
    void prefill();

    /**
     * The admission pump's single step: fire every event scheduled
     * before rec.arrival, set the engine clock to that tick and
     * admit @p rec there. Arrivals must be nondecreasing; one before
     * the engine's clock panics. The pipeline holds only the
     * in-flight window of commands.
     */
    void process(const TraceRecord &rec);

    /**
     * The admission pump: prefill() if configured, process() every
     * record streamed from @p source, then drain() (DESIGN.md
     * section 7.16).
     */
    void run(TraceSource &source);

    /** Run the event engine until every submitted request completed. */
    void drain();

    /** Drains, then assembles the run's statistics. */
    SimResult result();

    const SsdConfig &config() const { return cfg; }
    const Ftl &ftl() const { return ftl_; }
    const ResourceModel &resourceModel() const { return resources; }
    const FlashArray &flash() const { return flashArray; }
    const Controller &pipeline() const { return controller_; }
    const EventEngine &events() const { return engine; }
    DeadValuePool *dvp() { return pool.get(); }

    /** Every component's statistics under one dotted namespace. */
    const StatRegistry &statRegistry() const { return registry_; }

    /** Epoch time-series; null unless statsInterval > 0. */
    const EpochSampler *sampler() const { return sampler_.get(); }

    /** Operation trace; null unless opTrace is set. */
    const PerfettoTraceWriter *tracer() const { return tracer_.get(); }

  private:
    SsdConfig cfg;
    FlashArray flashArray;
    std::unique_ptr<DeadValuePool> pool;
    std::unique_ptr<FingerprintStore> store;
    Ftl ftl_;
    ResourceModel resources;
    ReadCache cache;
    EventEngine engine;
    Controller controller_;

    /** Stat namespace over every component (pure observation). */
    StatRegistry registry_;

    /** Telemetry attachments; null when the config disables them. */
    std::unique_ptr<EpochSampler> sampler_;
    std::unique_ptr<PerfettoTraceWriter> tracer_;

    bool prefilled = false;
    bool measuring = false;

    /** Counter snapshots taken when measurement starts. */
    FlashCounters flashBase;
    FtlStats ftlBase;

    void beginMeasurement(Tick first_arrival);
    static std::unique_ptr<DeadValuePool> makePool(const SsdConfig &);
};

} // namespace zombie

#endif // ZOMBIE_SIM_SSD_HH

/**
 * @file
 * Event-driven controller pipeline: admission -> dispatch -> flash.
 *
 * The request path is an explicit pipeline of three stages
 * coordinated by the EventEngine:
 *
 *  1. Host interface (HostQueue): commands are submitted in arrival
 *     order to their tenant's submission queue and admitted
 *     NCQ-style into one of `queueDepth` command contexts (tags).
 *     With several tenants a QueueArbiter (rr/wrr) names the queue
 *     each freed tag serves, and per-tenant tag budgets cap how many
 *     contexts one tenant may hold; a single tenant owns one queue
 *     and the full tag pool, reproducing the historical path
 *     byte-for-byte. While every context is busy (or the tenant's
 *     budget is spent), later commands wait in their submission
 *     queue — that admission delay is the knob deep host queues and
 *     arbitration weights turn.
 *  2. Dispatcher: each admitted command occupies its context for the
 *     FTL overhead (mapping-table work). Contexts process commands
 *     concurrently, but FTL state transitions themselves execute in
 *     submission order (contexts all charge the same overhead, so
 *     dispatch completions preserve FIFO order through the engine's
 *     stable tie-break). The hash engine (Table I, 12us) is
 *     pipelined hardware: it adds latency to a write's path without
 *     occupying the context.
 *  3. Flash scheduler: issues the FTL's FlashSteps against the
 *     ResourceModel. Steps of one command serialize on each other
 *     (a step starts at the previous step's completion); commands on
 *     different dies complete out of order, observed via completion
 *     events. GC steps are charged at the triggering command's issue
 *     tick so collections pile onto their dies behind the host op.
 *
 * The controller is the engine's EventSink: every scheduled event is
 * a typed (kind, ctx, arg) record, and per-command state lives in a
 * free-listed slab addressed by the ctx payload, so the steady-state
 * request path allocates nothing (DESIGN.md section 7.10).
 *
 * At queueDepth 1 the pipeline degenerates to the historical
 * in-order dispatcher (one command in the controller at a time,
 * serialized on the FTL overhead) and reproduces its timing
 * byte-for-byte; deeper queues admit bursts concurrently.
 */

#ifndef ZOMBIE_SIM_CONTROLLER_HH
#define ZOMBIE_SIM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "ftl/ftl.hh"
#include "nand/resource_model.hh"
#include "sim/arbiter.hh"
#include "sim/config.hh"
#include "sim/event.hh"
#include "sim/host_queue.hh"
#include "sim/read_cache.hh"
#include "telemetry/epoch_sampler.hh"
#include "telemetry/stat_registry.hh"
#include "util/slab.hh"
#include "util/stats.hh"

namespace zombie
{

/** Timing outcome of issuing one command's flash work. */
struct FlashIssue
{
    /** Completion of the user-visible operation. */
    Tick completion = 0;

    /** Completion of the last collateral GC step (>= completion). */
    Tick gcTail = 0;
};

/**
 * Stage 3: charge a command's FlashSteps against the resource model.
 *
 * User steps chain: each step starts no earlier than the previous
 * step's completion (a dependent read-modify sequence cannot overlap
 * itself). Read-cache hits complete in controller RAM and still
 * advance the chain. GC steps all start at the command's issue tick
 * and serialize per die through the busy-until schedule.
 */
class FlashScheduler
{
  public:
    FlashScheduler(ResourceModel &resources, ReadCache &cache)
        : res(resources), readCache(cache)
    {
    }

    FlashIssue issue(const FlashStepBuffer &steps, Tick t);

    /** Category label stamped on host-op trace spans (see
     *  ResourceModel::setHostSpanCategory). */
    void setHostSpanCategory(const char *category)
    {
        res.setHostSpanCategory(category);
    }

  private:
    ResourceModel &res;
    ReadCache &readCache;
};

/**
 * In-order completion tracking over a ring of bits. Commands are
 * numbered in submission order. A completion that overtakes an older
 * outstanding command sets its bit (index mod capacity); the
 * in-order one advances nextInOrder() past it and every set bit that
 * follows, clearing them. The ring doubles, re-laying its bits out,
 * when a completion lands a full capacity ahead, so a ring sized at
 * construction keeps the steady state allocation-free.
 */
class CompletionRing
{
  public:
    /** A ring of at least @p min_bits (rounded up to a power of two
     *  of at least 64). */
    explicit CompletionRing(std::uint64_t min_bits);

    /**
     * Record command @p idx's completion (each index once, none below
     * nextInOrder()). @return true when it was the oldest command
     * still outstanding.
     */
    bool complete(std::uint64_t idx);

    /** Oldest command not yet completed. */
    std::uint64_t nextInOrder() const { return next; }

    /** Indices the ring can hold ahead of nextInOrder(). */
    std::uint64_t capacity() const { return words.size() * 64; }

  private:
    void grow(std::uint64_t span);

    std::vector<std::uint64_t> words; //!< power-of-two count
    std::uint64_t next = 0;
};

/** Aggregate pipeline counters for one run. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** Completions that overtook an earlier-submitted command. */
    std::uint64_t oooCompletions = 0;

    Tick firstArrival = 0;
    Tick lastCompletion = 0;

    /**
     * Ticks of collateral GC work extending past the triggering
     * command's user-visible completion (the background pause each
     * collection adds to the schedule's tail).
     */
    Tick gcTailTicks = 0;

    LatencyHistogram readLatency;
    LatencyHistogram writeLatency;
    LatencyHistogram allLatency;
};

/**
 * One tenant's slice of the pipeline observations. Only maintained
 * when the config names more than one tenant, so the single-tenant
 * hot path stays exactly as it was.
 */
struct TenantResult
{
    std::uint64_t submitted = 0;
    std::uint64_t blockedAdmissions = 0;
    Tick admissionWait = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /**
     * Ticks of collateral GC tail charged to commands this tenant
     * issued (who pays for collections the drive needed anyway —
     * the noisy-neighbor attribution signal).
     */
    Tick gcCollateralTicks = 0;

    LatencyHistogram readLatency;
    LatencyHistogram writeLatency;
};

/** The controller pipeline servicing one drive's host stream. */
class Controller : public EventSink
{
  public:
    Controller(const SsdConfig &config, Ftl &ftl,
               ResourceModel &resources, ReadCache &cache,
               EventEngine &events);

    /**
     * Admit one host command at its arrival tick: fire every event
     * scheduled before rec.arrival, then queue the command and
     * dispatch it if a tag is free. Arrival ticks must be
     * nondecreasing; one before the engine's clock panics.
     */
    void submit(const TraceRecord &rec);

    /** Close the input and run the engine until every submitted
     *  command completed. */
    void drain();

    /** Typed-event dispatch (EventSink). */
    void event(Tick now, EventKind kind, std::uint32_t ctx,
               std::uint64_t arg) override;

    const ControllerStats &stats() const { return cstats; }

    /** Drive-wide admission counters, summed across every tenant's
     *  submission queue (identical to the single queue's own stats
     *  when tenants == 1). */
    const HostQueueStats &hostStats() const { return hqTotal; }

    std::uint32_t queueDepth() const { return depth; }
    std::uint32_t tenants() const { return numTenants; }

    /** Tenant @p t's pipeline + admission observations. */
    TenantResult tenantResult(std::uint32_t t) const;

    /** Commands submitted but not yet completed. */
    std::uint64_t outstanding() const { return submitted - completed; }

    /**
     * Attach an epoch sampler (not owned; nullptr detaches). The
     * controller schedules one StatsSample event per boundary while
     * commands are outstanding or input is open, re-arming on the
     * next submission, so an idle drive costs no events and the
     * engine always drains.
     */
    void attachSampler(EpochSampler *s) { sampler = s; }

    /**
     * Register pipeline counters, latency histograms and the
     * outstanding-commands gauge under "ctrl.". Counter storage lives
     * in this controller; the registrations stay valid for its
     * lifetime.
     */
    void registerStats(StatRegistry &registry) const;

  private:
    void tryDispatch(Tick now);
    void onDispatched(const HostCommand &cmd, Tick now);
    void onCompletion(std::uint64_t idx);

    const SsdConfig &cfg;
    Ftl &ftl;
    EventEngine &engine;

    /** One submission queue per tenant (tenant 0 only by default).
     *  Sized at construction; never reallocates, so registered stat
     *  pointers into each queue stay valid. */
    std::vector<HostQueue> queues;
    QueueArbiter arbiter;
    FlashScheduler flash;

    std::uint32_t depth;
    std::uint32_t numTenants;

    /**
     * Per-tenant admission caps: weight-proportional shares of the
     * tag pool (at least one tag each). A budget equal to the full
     * depth imposes no constraint — notably the single-tenant case,
     * where admission is gated by context availability alone,
     * exactly as before the multi-tenant frontend.
     */
    std::vector<std::uint32_t> tagBudget;

    /** Dispatch contexts currently charged to each tenant. */
    std::vector<std::uint32_t> tenantTags;

    /** Drive-wide admission counters (see hostStats()). */
    HostQueueStats hqTotal;

    /** Commands waiting across all queues (drive-wide maxWaiting). */
    std::uint64_t waitingNow = 0;

    /** Per-tenant counters; empty unless numTenants > 1. */
    std::vector<TenantResult> tstats;

    /**
     * Free-at ticks of the dispatch contexts (command tags), a FIFO
     * read from oldestTag. Every tag charges the same ftlOverhead
     * from a nondecreasing dispatch tick, so the tag dispatched
     * longest ago frees first: the head is the earliest-free tag.
     */
    std::vector<Tick> ctxFreeAt;
    std::uint32_t oldestTag = 0;

    /**
     * Commands between admission and dispatch-done, addressed by the
     * slab index carried in the DispatchDone event's ctx payload.
     * At most `depth` slots ever exist.
     */
    Slab<HostCommand> inDispatch;

    /** Reusable scratch the FTL fills per command (clear, not free). */
    FlashStepBuffer steps;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;

    /** Out-of-order completion tracking (ctrl.ooo_completions). */
    CompletionRing completions;

    /** Epoch sampler; null (the default) schedules no sample events. */
    EpochSampler *sampler = nullptr;

    /** A StatsSample event is pending in the engine. */
    bool samplerArmed = false;

    /**
     * Opened by submit, closed by drain. While open, the sampler
     * chain stays armed across idle gaps, so every epoch row spans
     * one interval however sparse the arrivals.
     */
    bool inputOpen = false;

    ControllerStats cstats;
};

} // namespace zombie

#endif // ZOMBIE_SIM_CONTROLLER_HH

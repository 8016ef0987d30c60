#include "sim/controller.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "util/logging.hh"

namespace zombie
{

FlashIssue
FlashScheduler::issue(const FlashStepBuffer &steps, Tick t)
{
    // User steps chain: a command's next step starts no earlier than
    // the previous step's completion, including completions served
    // from controller RAM.
    Tick step_start = t;
    Tick completion = t;
    for (const FlashStep &step : steps.userSteps) {
        if (step.op == FlashOp::Read && readCache.access(step.ppn)) {
            completion = step_start + res.timing().cacheHit;
        } else {
            if (step.op == FlashOp::Program)
                readCache.invalidate(step.ppn);
            completion = res.scheduleOp(step.op, step.ppn, step_start);
        }
        step_start = completion;
    }

    // GC work starts when the FTL triggers it (issue time) and piles
    // onto its dies/channels; later arrivals to those dies queue
    // behind the collection. Steps on one die serialize through its
    // busy-until in issue order; planes collect in parallel.
    Tick gc_tail = completion;
    for (const FlashStep &step : steps.gcSteps) {
        if (step.op == FlashOp::Program)
            readCache.invalidate(step.ppn);
        gc_tail = std::max(gc_tail,
                           res.scheduleOp(step.op, step.ppn, t, true));
    }
    return FlashIssue{completion, gc_tail};
}

CompletionRing::CompletionRing(std::uint64_t min_bits)
    : words(std::bit_ceil(std::max<std::uint64_t>(min_bits, 64)) / 64,
            0)
{
}

bool
CompletionRing::complete(std::uint64_t idx)
{
    zombie_assert(idx >= next, "command ", idx, " completed twice");
    if (idx != next) {
        if (idx - next >= capacity())
            grow(idx - next + 1);
        words[(idx >> 6) & (words.size() - 1)] |= 1ULL << (idx & 63);
        return false;
    }
    // Step past idx, then past each run of set bits that follows it,
    // clearing the run; a run reaching a word's end continues in the
    // next word.
    const std::uint64_t mask = words.size() - 1;
    ++next;
    for (;;) {
        std::uint64_t &word = words[(next >> 6) & mask];
        const unsigned bit = next & 63;
        const unsigned run = std::countr_one(word >> bit);
        if (run == 0)
            break;
        word &= run == 64 ? 0 : ~(((1ULL << run) - 1) << bit);
        next += run;
        if (bit + run < 64)
            break;
    }
    return true;
}

void
CompletionRing::grow(std::uint64_t span)
{
    // A set bit at ring position p stands for the one index in
    // [next, next + old capacity) congruent to p; re-place each at
    // that index modulo the new capacity.
    const std::uint64_t old_bits = capacity();
    std::vector<std::uint64_t> bigger(
        std::bit_ceil(std::max(span, 2 * old_bits)) / 64, 0);
    const std::uint64_t new_mask = bigger.size() * 64 - 1;
    for (std::uint64_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w]; bits != 0;
             bits &= bits - 1) {
            const std::uint64_t pos = w * 64 + std::countr_zero(bits);
            const std::uint64_t idx =
                next + ((pos - next) & (old_bits - 1));
            bigger[(idx & new_mask) >> 6] |= 1ULL << (idx & 63);
        }
    }
    words = std::move(bigger);
}

/** Static span-category literals, one per possible tenant (the
 *  TraceSink contract requires static storage). */
static const char *
tenantSpanCategory(std::uint32_t tenant)
{
    static const char *const kNames[kMaxTenants] = {
        "tenant0",  "tenant1",  "tenant2",  "tenant3",
        "tenant4",  "tenant5",  "tenant6",  "tenant7",
        "tenant8",  "tenant9",  "tenant10", "tenant11",
        "tenant12", "tenant13", "tenant14", "tenant15"};
    return tenant < kMaxTenants ? kNames[tenant] : "host";
}

Controller::Controller(const SsdConfig &config, Ftl &ftl_,
                       ResourceModel &resources, ReadCache &cache,
                       EventEngine &events)
    : cfg(config), ftl(ftl_), engine(events),
      queues(std::max<std::uint32_t>(1, config.tenants)),
      arbiter(config.arbiter,
              std::max<std::uint32_t>(1, config.tenants),
              config.arbiterWeights),
      flash(resources, cache), depth(config.queueDepth),
      numTenants(std::max<std::uint32_t>(1, config.tenants)),
      ctxFreeAt(std::max<std::uint32_t>(1, config.queueDepth), 0),
      // Completion tags free at dispatch, so flash completions
      // stream out of order without a queue-depth bound: the reorder
      // window is limited only by how much work the dies hold. Size
      // the ring for a GC-heavy backlog up front (a wider window
      // merely doubles it, an allocation, not an error).
      completions(std::max<std::uint64_t>(8192, 2ull * depth))
{
    zombie_assert(depth >= 1, "controller needs at least one tag");
    engine.setSink(this);
    inDispatch.reserve(depth);
    tenantTags.assign(numTenants, 0);
    // Weight-proportional tag budgets, at least one tag each. With
    // one tenant the budget equals the depth, which tryDispatch
    // treats as "no constraint" — admission is then gated purely by
    // context availability, exactly the historical behaviour.
    tagBudget.assign(numTenants, depth);
    if (numTenants > 1) {
        const auto &w = arbiter.weights();
        std::uint64_t weight_sum = 0;
        for (const std::uint32_t wt : w)
            weight_sum += wt;
        for (std::uint32_t t = 0; t < numTenants; ++t) {
            tagBudget[t] = std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(
                       (std::uint64_t(depth) * w[t]) / weight_sum));
        }
        tstats.resize(numTenants);
    }
    // At most one DispatchDone per tag is ever pending. The heap
    // holds the in-flight FlashDone events and one StatsSample; a
    // GC-heavy reorder window regrows it during warm-up (an
    // allocation, never an error).
    engine.reserveFifo(depth + 4);
    engine.reserve(4ul * depth + 16);
    // Scratch high-water: one user step plus, in the worst (survival
    // mode) case, a whole victim block of relocation reads/programs
    // and the closing erase — per plane that drained this command.
    steps.reserve(2, 2 * cfg.geom.pagesPerBlock() + 8);
}

void
Controller::submit(const TraceRecord &rec)
{
    if (rec.tenant >= numTenants) {
        zombie_fatal("record for tenant ", rec.tenant,
                     " on a drive configured for ", numTenants,
                     " tenant(s)");
    }
    // Service the past before admitting the future: the in-flight
    // window is all the engine ever holds.
    engine.runBefore(rec.arrival);
    if (submitted == 0)
        cstats.firstArrival = rec.arrival;
    inputOpen = true;

    // First submission after an idle period re-arms the sampler at
    // the next absolute epoch boundary (boundaries are multiples of
    // the interval, so the grid survives idle gaps unshifted). It
    // draws its sequence number before this command's dispatch, so
    // a same-tick boundary fires first.
    if (sampler && !samplerArmed) {
        samplerArmed = true;
        engine.schedule(sampler->nextBoundary(rec.arrival),
                        EventKind::StatsSample);
    }

    // Route the command to its tenant's submission queue and mirror
    // the admission counters drive-wide (hqTotal backs the
    // "ctrl.queue.*" stats across any tenant count).
    queues[rec.tenant].push(HostCommand{rec, submitted++});
    ++hqTotal.submitted;
    ++waitingNow;
    if (waitingNow > hqTotal.maxWaiting)
        hqTotal.maxWaiting = waitingNow;
    tryDispatch(rec.arrival);
}

void
Controller::event(Tick now, EventKind kind, std::uint32_t ctx,
                  std::uint64_t arg)
{
    switch (kind) {
      case EventKind::DispatchDone: {
        const HostCommand cmd = inDispatch[ctx];
        inDispatch.release(ctx);
        --tenantTags[cmd.rec.tenant];
        onDispatched(cmd, now);
        break;
      }
      case EventKind::FlashDone:
        onCompletion(arg);
        break;
      case EventKind::StatsSample:
        // Epoch boundary: snapshot the registry, then re-arm one
        // interval ahead while commands remain in flight or the pump
        // has more to submit. Once input is closed and the pipeline
        // idle the chain stops (the engine must drain) and the next
        // submission re-arms it.
        sampler->sample(now);
        if (outstanding() > 0 || inputOpen)
            engine.schedule(now + sampler->interval(),
                            EventKind::StatsSample);
        else
            samplerArmed = false;
        break;
      default:
        zombie_panic("controller received unknown event kind");
    }
}

void
Controller::tryDispatch(Tick now)
{
    while (waitingNow > 0) {
        // The FIFO head is the earliest-free context.
        Tick &free_at = ctxFreeAt[oldestTag];
        if (free_at > now)
            return; // every tag busy; retried at next dispatch-done

        // The arbiter names the queue this tag serves. A tenant is
        // eligible while it has work and tags under its budget; a
        // full-depth budget (the single-tenant case) never gates, so
        // admission degenerates to the historical context-only check.
        const std::uint32_t t = arbiter.pick([this](std::uint32_t q) {
            return !queues[q].empty() &&
                   (tagBudget[q] >= depth ||
                    tenantTags[q] < tagBudget[q]);
        });
        if (t == QueueArbiter::kNone)
            return; // every non-empty queue is over budget

        const HostCommand cmd = queues[t].pop(now);
        --waitingNow;
        if (now > cmd.rec.arrival) {
            ++hqTotal.blockedAdmissions;
            hqTotal.admissionWait += now - cmd.rec.arrival;
        }
        ++tenantTags[t];
        free_at = now + cfg.timing.ftlOverhead;
        oldestTag = oldestTag + 1 == depth ? 0 : oldestTag + 1;
        const std::uint32_t slot = inDispatch.acquire();
        inDispatch[slot] = cmd;
        // Dispatch-done ticks are `now + ftlOverhead` with `now`
        // monotone, so they ride the O(1) FIFO.
        engine.scheduleFifo(free_at, EventKind::DispatchDone, slot);
    }
}

void
Controller::onDispatched(const HostCommand &cmd, Tick now)
{
    // The hash engine (12us, Table I) is pipelined hardware: it adds
    // latency to each write's path without limiting throughput.
    Tick t = now;
    if (cmd.rec.isWrite() && usesHashEngine(cfg.system))
        t += cfg.timing.hashLatency;

    // Dispatch-done events preserve submission order, so the FTL's
    // state transitions stay in trace order at every queue depth.
    // The step scratch is reused across commands (cleared by the
    // FTL, capacity kept).
    const HostOpResult result =
        cmd.rec.isWrite() ? ftl.write(cmd.rec.lpn, cmd.rec.fp, steps)
                          : ftl.read(cmd.rec.lpn, steps);
    (void)result;
    // Tag host-op trace spans with the issuing tenant; with one
    // tenant the category stays the historical "host" literal.
    if (numTenants > 1)
        flash.setHostSpanCategory(tenantSpanCategory(cmd.rec.tenant));
    const FlashIssue issued = flash.issue(steps, t);

    cstats.lastCompletion =
        std::max(cstats.lastCompletion,
                 std::max(issued.completion, issued.gcTail));

    const Tick latency = issued.completion - cmd.rec.arrival;
    if (cmd.rec.isWrite()) {
        ++cstats.writes;
        cstats.writeLatency.record(latency);
    } else {
        ++cstats.reads;
        cstats.readLatency.record(latency);
    }
    cstats.allLatency.record(latency);

    if (numTenants > 1) {
        TenantResult &ts = tstats[cmd.rec.tenant];
        if (cmd.rec.isWrite()) {
            ++ts.writes;
            ts.writeLatency.record(latency);
        } else {
            ++ts.reads;
            ts.readLatency.record(latency);
        }
        if (issued.gcTail > issued.completion)
            ts.gcCollateralTicks += issued.gcTail - issued.completion;
    }

    engine.schedule(issued.completion, EventKind::FlashDone, 0,
                    cmd.idx);
    if (issued.gcTail > issued.completion)
        cstats.gcTailTicks += issued.gcTail - issued.completion;

    // This command's tag is free again: admit the next waiter.
    tryDispatch(now);
}

void
Controller::onCompletion(std::uint64_t idx)
{
    ++completed;
    // Out of order: an earlier-submitted command is still in flight
    // on a slower die, and this completion overtook it.
    if (!completions.complete(idx))
        ++cstats.oooCompletions;
}

void
Controller::registerStats(StatRegistry &registry) const
{
    registry.addCounter("ctrl.reads", &cstats.reads);
    registry.addCounter("ctrl.writes", &cstats.writes);
    registry.addCounter("ctrl.ooo_completions",
                        &cstats.oooCompletions);
    registry.addCounter("ctrl.gc_tail_ticks", &cstats.gcTailTicks);
    registry.addHistogram("ctrl.latency.read", &cstats.readLatency);
    registry.addHistogram("ctrl.latency.write", &cstats.writeLatency);
    registry.addHistogram("ctrl.latency.all", &cstats.allLatency);

    registry.addCounter("ctrl.queue.submitted", &hqTotal.submitted);
    registry.addCounter("ctrl.queue.blocked_admissions",
                        &hqTotal.blockedAdmissions);
    registry.addCounter("ctrl.queue.admission_wait_ticks",
                        &hqTotal.admissionWait);
    registry.addGauge("ctrl.queue.waiting", [this] {
        return static_cast<double>(waitingNow);
    });
    registry.addGauge("ctrl.outstanding", [this] {
        return static_cast<double>(outstanding());
    });

    // Per-tenant slices exist only on a multi-tenant drive, so the
    // single-tenant registry dump stays byte-identical. Storage lives
    // in `queues` / `tstats`, both sized once at construction.
    if (numTenants <= 1)
        return;
    for (std::uint32_t t = 0; t < numTenants; ++t) {
        const std::string p = "tenant." + std::to_string(t) + ".";
        const HostQueueStats &hq = queues[t].stats();
        registry.addCounter(p + "submitted", &hq.submitted);
        registry.addCounter(p + "blocked_admissions",
                            &hq.blockedAdmissions);
        registry.addCounter(p + "admission_wait_ticks",
                            &hq.admissionWait);
        registry.addGauge(p + "waiting", [this, t] {
            return static_cast<double>(queues[t].waiting());
        });
        const TenantResult &ts = tstats[t];
        registry.addCounter(p + "reads", &ts.reads);
        registry.addCounter(p + "writes", &ts.writes);
        registry.addCounter(p + "gc_collateral_ticks",
                            &ts.gcCollateralTicks);
        registry.addHistogram(p + "latency.read", &ts.readLatency);
        registry.addHistogram(p + "latency.write", &ts.writeLatency);
    }
}

TenantResult
Controller::tenantResult(std::uint32_t t) const
{
    zombie_assert(t < numTenants, "tenant index out of range");
    TenantResult out;
    if (numTenants > 1) {
        out = tstats[t];
    } else {
        // One tenant owns the whole pipeline: its slice is the
        // drive-wide view (tstats is not maintained on this path).
        out.reads = cstats.reads;
        out.writes = cstats.writes;
        out.readLatency = cstats.readLatency;
        out.writeLatency = cstats.writeLatency;
        out.gcCollateralTicks = cstats.gcTailTicks;
    }
    const HostQueueStats &hq = queues[t].stats();
    out.submitted = hq.submitted;
    out.blockedAdmissions = hq.blockedAdmissions;
    out.admissionWait = hq.admissionWait;
    return out;
}

void
Controller::drain()
{
    inputOpen = false;
    engine.run();
    zombie_assert(outstanding() == 0,
                  "drained engine left commands in flight");
}

} // namespace zombie

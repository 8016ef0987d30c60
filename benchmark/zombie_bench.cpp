/**
 * @file
 * Benchmark program: one workload per process, end-to-end metrics by
 * default, per-layer metrics with --trace 1.
 *
 *   zombie_bench --workload mail-dvp --seed 42 --seconds 10 --trace 0
 *
 * Every input is generated from --seed. After one discarded warm-up
 * repeat the workload repeats until --seconds have passed (at least
 * kMinRepeats times); each repeat generates or scans its trace,
 * builds a fresh Ssd, prefills it and replays the trace. Host times
 * are reported as medians over the repeats.
 *
 * Every repeat is checked: the drive must report exactly the requests
 * it was fed, the FNV-1a digest of its StatSet must equal the warm-up
 * repeat's (and the digest recorded for this workload and seed, when
 * --digests lists one), and Ftl::checkConsistency must pass.
 *
 * The traced run (--trace 1) pairs each untraced repeat with a traced
 * one that times the calls into each layer from outside, through
 * public APIs only: a TraceSource decorator around the replay
 * source, a DeadValuePool decorator, a standalone functional FTL
 * replay of the same records whose flash steps are charged to a
 * ResourceModel, and serial standalone grid cells. Phase spans go to
 * --trace-out as Chrome trace_event JSON.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics; the line before it carries the
 * quartiles and repeat counts, the digest, the unbounded simulated
 * results and the host.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dedup/fingerprint_store.hh"
#include "dvp/mq_dvp.hh"
#include "ftl/ftl.hh"
#include "nand/flash_array.hh"
#include "nand/resource_model.hh"
#include "sim/grid.hh"
#include "sim/ssd.hh"
#include "trace/adapters.hh"
#include "trace/generator.hh"
#include "trace/prefetch.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/stats.hh"

using namespace zombie;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/** a / b, or 0 when nothing was measured. */
double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class InputKind
{
    Generated, //!< synthetic records materialized during setup
    FiuReplay, //!< FIU blkio file streamed through parser + prefetch
    FiuGrid,   //!< the same file swept by runGridOnScannedTrace
};

struct WorkloadSpec
{
    const char *name;
    InputKind input;
    Workload preset;
    std::uint64_t requests;
    SystemKind system;
    std::uint32_t queueDepth;
};

/** Dead-value pool entries (simulate_trace's --pool default). */
constexpr std::uint64_t kPoolEntries = 5000;

/** Grid cells run two at a time: with their two prefetch producers
 *  that is four threads, the measuring host's core count. */
constexpr unsigned kGridJobs = 2;
const char *const kGridSpec = "system=baseline,dvp,dedup,dvp+dedup";
constexpr std::uint64_t kSpoolBudgetBytes = 512ull << 20;

constexpr std::size_t kMinRepeats = 3;

const WorkloadSpec kWorkloads[] = {
    // ROADMAP's historical 1M cell: DVP lookup/insert/revival and
    // popularity-aware GC do most of the work.
    {"mail-dvp", InputKind::Generated, Workload::Mail, 1'000'000,
     SystemKind::MqDvp, 1},
    // Skewed reads, no content engine: controller, event engine, read
    // cache and resource model; content-engine changes must not move it.
    {"hadoop-base-qd32", InputKind::Generated, Workload::Hadoop,
     2'000'000, SystemKind::Baseline, 32},
    // The paper's trace family: FIU decode, adapters, prefetch and the
    // dedup FingerprintStore.
    {"web-fiu-replay", InputKind::FiuReplay, Workload::Web, 1'000'000,
     SystemKind::DvpDedup, 8},
    // Scan-once grid sweep: spool, thread pool, concurrent cells.
    {"grid-fiu-4cell", InputKind::FiuGrid, Workload::Web, 1'000'000,
     SystemKind::DvpDedup, 8},
};

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    zombie_fatal("unknown workload '", name, "' (see --list)");
}

/** The drive simulate_trace builds for a trace of this footprint. */
SsdConfig
makeConfig(std::uint64_t footprint_pages, SystemKind system,
           std::uint32_t depth)
{
    SsdConfig cfg = SsdConfig::forFootprint(
        std::max<std::uint64_t>(footprint_pages, 1), system);
    cfg.mq.capacity = kPoolEntries;
    cfg.queueDepth = depth;
    return cfg;
}

/**
 * Render the workload's synthetic trace as an FIU SRCMap blkio file:
 * one 8-sector (4KB) request per line, FILETIME timestamps, and the
 * record's fingerprint as the MD5 column.
 */
void
renderFiuTrace(const WorkloadSpec &spec, std::uint64_t seed,
               const std::string &path)
{
    // 2012-01-01 in FILETIME ticks (100 ns since 1601).
    constexpr std::uint64_t kFiletimeBase = 129'698'208'000'000'000ULL;
    SyntheticTraceGenerator gen(
        WorkloadProfile::preset(spec.preset, 1, spec.requests, seed));
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        zombie_fatal("cannot write ", path);
    TraceRecord rec;
    while (gen.next(rec)) {
        std::fprintf(f, "%llu 1000 bench %llu 8 %c 8 0 %s\n",
                     static_cast<unsigned long long>(
                         kFiletimeBase + rec.arrival / 100),
                     static_cast<unsigned long long>(rec.lpn * 8),
                     rec.isWrite() ? 'W' : 'R', rec.fp.hex().c_str());
    }
    if (std::fclose(f) != 0)
        zombie_fatal("cannot write ", path);
}

ScannedTrace
scanFiu(const std::string &path)
{
    ExternalTraceConfig cfg;
    cfg.path = path;
    cfg.format = ExternalFormat::FiuBlkio;
    return scanExternalTrace(cfg);
}

/** A directory for generated inputs, removed with its contents. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
        : dir(std::filesystem::path(parent) /
              ("zombie_bench." + std::to_string(::getpid())))
    {
        std::filesystem::create_directories(dir);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string path() const { return dir.string(); }

  private:
    std::filesystem::path dir;
};

// ---------------------------------------------------------------------
// Tracing from outside the program
// ---------------------------------------------------------------------

/** Phase spans of the traced repeats, kept in memory until the end. */
class PhaseTrace
{
  public:
    void
    add(const std::string &name, Clock::time_point begin,
        Clock::time_point end)
    {
        spans.push_back({name, begin, end});
    }

    /** Chrome trace_event JSON: one complete ("X") event per span. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            zombie_fatal("cannot write trace: ", path);
        const auto us = [this](Clock::time_point t) {
            return static_cast<double>(nsBetween(origin, t)) / 1000.0;
        };
        os << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "\"ts\": %.3f, \"dur\": %.3f", us(s.begin),
                          us(s.end) - us(s.begin));
            os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
               << "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, "
               << buf << "}";
        }
        os << "\n], \"displayTimeUnit\": \"ms\"}\n";
    }

  private:
    struct Span
    {
        std::string name;
        Clock::time_point begin;
        Clock::time_point end;
    };

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

/** Run @p fn as one phase: its wall seconds, and a span when traced. */
template <typename Fn>
double
phase(PhaseTrace *trace, const std::string &name, Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    if (trace)
        trace->add(name, t0, t1);
    return secondsBetween(t0, t1);
}

struct CallTimer
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    note(Clock::time_point t0)
    {
        ns += nsBetween(t0, Clock::now());
        ++calls;
    }
};

/** Layer measurements of one traced repeat, summed over its cells. */
struct Layers
{
    std::uint64_t records = 0; //!< input records (per-record rates)
    double genS = 0.0;
    double scanS = 0.0;
    double decodeS = 0.0;

    double runS = 0.0;  //!< traced Ssd::run + result walls
    double nextS = 0.0; //!< of which inside the source's next()
    std::uint64_t events = 0;
    std::uint64_t requests = 0;
    LatencyHistogram admitGapNs;
    ReadCacheStats cache;
    std::uint64_t blockedAdmissions = 0;
    std::uint64_t oooCompletions = 0;

    double prefillS = 0.0;
    std::uint64_t prefillPages = 0;
    LatencyHistogram ftlWriteNs;
    LatencyHistogram ftlReadNs;
    double ftlS = 0.0;
    std::uint64_t ftlWrites = 0;
    std::uint64_t gcSteps = 0;

    CallTimer dvpLookup;
    CallTimer dvpInsert;
    CallTimer dvpErase;
    DvpStats dvp;
    DedupStats dedup;

    double nandS = 0.0;
    std::uint64_t nandOps = 0;
    std::uint64_t nandRequests = 0;
    double dieUtilSum = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t maxDieBacklog = 0;

    double spoolS = 0.0;
    double gridWallS = 0.0;          //!< the paired untraced grid call
    double standaloneWallSum = 0.0;  //!< untraced serial cells
    double standaloneWallMax = 0.0;

    /** Tracing overhead: the same work timed with and without it. */
    double tracedS = 0.0;
    double untracedS = 0.0;

    struct Value
    {
        const char *name;
        const char *unit;
        double value;
    };

    /** Every per-layer metric, in report order. */
    std::vector<Value>
    finish() const
    {
        const auto n = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        const double recs = n(records);
        return {
            {"trace.gen_ns_per_record", "ns", ratio(genS * 1e9, recs)},
            {"trace.scan_ns_per_record", "ns", ratio(scanS * 1e9, recs)},
            {"trace.decode_ns_per_record", "ns",
             ratio(decodeS * 1e9, recs)},
            {"trace.next_wait_frac", "ratio", ratio(nextS, runS)},
            {"sim.ns_per_event", "ns",
             ratio((runS - nextS) * 1e9, n(events))},
            {"sim.events_per_req", "event/req",
             ratio(n(events), n(requests))},
            {"sim.admit_gap_ns_p50", "ns",
             n(admitGapNs.percentile(0.5))},
            {"sim.admit_gap_ns_p999", "ns",
             n(admitGapNs.percentile(0.999))},
            {"sim.admit_gap_samples", "count", n(admitGapNs.count())},
            {"sim.read_cache_hit_rate", "ratio", cache.hitRate()},
            {"sim.blocked_admissions", "count", n(blockedAdmissions)},
            {"sim.ooo_completions", "count", n(oooCompletions)},
            {"ftl.prefill_ns_per_page", "ns",
             ratio(prefillS * 1e9, n(prefillPages))},
            {"ftl.write_ns_p50", "ns", n(ftlWriteNs.percentile(0.5))},
            {"ftl.write_ns_p99", "ns", n(ftlWriteNs.percentile(0.99))},
            {"ftl.read_ns_p50", "ns", n(ftlReadNs.percentile(0.5))},
            {"ftl.gc_steps_per_write", "step/write",
             ratio(n(gcSteps), n(ftlWrites))},
            {"ftl.share_of_run", "ratio", ratio(ftlS, runS)},
            {"dvp.lookup_ns_mean", "ns",
             ratio(n(dvpLookup.ns), n(dvpLookup.calls))},
            {"dvp.insert_ns_mean", "ns",
             ratio(n(dvpInsert.ns), n(dvpInsert.calls))},
            {"dvp.erase_ns_mean", "ns",
             ratio(n(dvpErase.ns), n(dvpErase.calls))},
            {"dvp.hit_rate", "ratio", dvp.hitRate()},
            {"dvp.capacity_evictions", "count", n(dvp.capacityEvictions)},
            {"dvp.gc_evictions", "count", n(dvp.gcEvictions)},
            {"dedup.lookups", "count", n(dedup.lookups)},
            {"dedup.hit_rate", "ratio", dedup.hitRate()},
            {"nand.schedule_ns_per_op", "ns",
             ratio(nandS * 1e9, n(nandOps))},
            {"nand.ops_per_req", "op/req",
             ratio(n(nandOps), n(nandRequests))},
            {"nand.die_util", "ratio", ratio(dieUtilSum, n(cells))},
            {"nand.max_die_backlog", "count", n(maxDieBacklog)},
            {"grid.spool_s", "s", spoolS},
            {"grid.parallel_efficiency", "ratio",
             ratio(standaloneWallSum, kGridJobs * gridWallS)},
            {"grid.cell_wall_s_max", "s", standaloneWallMax},
            {"bench.trace_overhead_frac", "ratio",
             untracedS > 0.0 ? tracedS / untracedS - 1.0 : 0.0},
        };
    }
};

/**
 * Times every next() call and the host time between consecutive calls
 * — the simulator's work per admitted record.
 */
class TimedSource : public TraceSource
{
  public:
    TimedSource(TraceSource &inner, LatencyHistogram &admit_gap_ns)
        : src(inner), gaps(admit_gap_ns)
    {
    }

    bool
    next(TraceRecord &out) override
    {
        const auto t0 = Clock::now();
        if (started)
            gaps.record(nsBetween(lastReturn, t0));
        const bool more = src.next(out);
        lastReturn = Clock::now();
        insideNs += nsBetween(t0, lastReturn);
        started = true;
        return more;
    }

    double insideSeconds() const { return insideNs / 1e9; }

  private:
    TraceSource &src;
    LatencyHistogram &gaps;
    Clock::time_point lastReturn{};
    bool started = false;
    double insideNs = 0.0;
};

/** Streams a materialized record vector it does not own. */
class RecordsSource : public TraceSource
{
  public:
    explicit RecordsSource(const std::vector<TraceRecord> &records)
        : recs(records)
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= recs.size())
            return false;
        out = recs[pos++];
        return true;
    }

  private:
    const std::vector<TraceRecord> &recs;
    std::size_t pos = 0;
};

/** Times every call into the wrapped pool. */
class TimedPool : public DeadValuePool
{
  public:
    explicit TimedPool(std::unique_ptr<DeadValuePool> inner)
        : pool(std::move(inner))
    {
    }

    std::string name() const override { return pool->name(); }

    DvpLookupResult
    lookupForWrite(const Fingerprint &fp, Lpn lpn) override
    {
        const auto t0 = Clock::now();
        const DvpLookupResult r = pool->lookupForWrite(fp, lpn);
        lookup.note(t0);
        return r;
    }

    void
    insertGarbage(const Fingerprint &fp, Lpn lpn, Ppn ppn,
                  std::uint8_t pop) override
    {
        const auto t0 = Clock::now();
        pool->insertGarbage(fp, lpn, ppn, pop);
        insert.note(t0);
    }

    void
    onErase(Ppn ppn) override
    {
        const auto t0 = Clock::now();
        pool->onErase(ppn);
        erase.note(t0);
    }

    void onHostRead(Lpn lpn) override { pool->onHostRead(lpn); }
    std::uint64_t size() const override { return pool->size(); }
    std::uint64_t capacity() const override { return pool->capacity(); }
    const DvpStats &stats() const override { return pool->stats(); }

    CallTimer lookup;
    CallTimer insert;
    CallTimer erase;

  private:
    std::unique_ptr<DeadValuePool> pool;
};

/** Ssd::prefill's content ids (kPrefillIdBase in sim/ssd.cc). */
constexpr std::uint64_t kPrefillIdBase = 0xF000'0000'0000'0000ULL;

/** Flash steps the functional replay charges per timed batch. */
constexpr std::size_t kNandBatch = 4096;

struct ReplayStep
{
    Tick earliest;
    Ppn ppn;
    FlashOp op;
    bool gc;
};

/**
 * Feed @p records straight into a standalone FTL built as Ssd builds
 * it, timing each Ftl::write/read, and charge the flash steps each
 * call returns to a ResourceModel at the record's arrival; the same
 * scheduleOp calls are timed on a twin model. As in Ssd, the FTL's
 * write allocator reads the first model's die-load view: it skips
 * planes out of free blocks, without which GC cannot keep up on a
 * saturated drive. Every DVP system the workloads use (dvp,
 * dvp+dedup) pools with MqDvp.
 */
void
replayFtl(const SsdConfig &cfg, const std::vector<TraceRecord> &records,
          Layers &layers)
{
    FlashArray array(cfg.geom);
    ResourceModel model(cfg.geom, cfg.timing);
    std::unique_ptr<TimedPool> pool;
    if (usesDvp(cfg.system))
        pool = std::make_unique<TimedPool>(
            std::make_unique<MqDvp>(cfg.mq));
    std::unique_ptr<FingerprintStore> store;
    if (usesDedup(cfg.system))
        store = std::make_unique<FingerprintStore>(cfg.logicalPages);
    Ftl ftl(array,
            FtlConfig{.logicalPages = cfg.logicalPages,
                      .gcSoftWater = cfg.gcSoftWater,
                      .gcLowWater = cfg.gcLowWater,
                      .gcPagesPerStep = cfg.gcPagesPerStep,
                      .gcPolicy = cfg.resolvedGcPolicy(),
                      .gcPopWeight = cfg.gcPopWeight,
                      .hotColdSeparation = cfg.hotColdSeparation,
                      .hotThreshold = cfg.hotThreshold});
    ftl.attachDvp(pool.get());
    ftl.attachDedup(store.get());
    ftl.setDieLoadView(model.dieBusyTable(), cfg.geom.planesPerDie());
    ftl.setDieLoadGroups(model.dieGroupMinTable(),
                         static_cast<std::uint32_t>(model.dieGroupDies()));

    FlashStepBuffer buf;
    const auto prefill = static_cast<std::uint64_t>(
        cfg.prefillFraction * static_cast<double>(cfg.logicalPages));
    for (std::uint64_t lpn = 0; lpn < prefill; ++lpn)
        ftl.write(lpn, Fingerprint::fromValueId(kPrefillIdBase | lpn),
                  buf);
    if (pool)
        pool->lookup = pool->insert = pool->erase = CallTimer{};

    // The die-load view must follow every write, so each call's steps
    // go to the model at once, untimed. The timed copy replays them in
    // batches into a twin model, where the clock reads cost nothing
    // per op.
    ResourceModel timed(cfg.geom, cfg.timing);
    std::vector<ReplayStep> pending;
    pending.reserve(kNandBatch + 1024);
    const auto charge = [&] {
        const auto t0 = Clock::now();
        for (const ReplayStep &s : pending)
            timed.scheduleOp(s.op, s.ppn, s.earliest, s.gc);
        layers.nandS += secondsBetween(t0, Clock::now());
        layers.nandOps += pending.size();
        pending.clear();
    };
    for (const TraceRecord &rec : records) {
        const auto t0 = Clock::now();
        if (rec.isWrite())
            ftl.write(rec.lpn, rec.fp, buf);
        else
            ftl.read(rec.lpn, buf);
        const std::uint64_t ns = nsBetween(t0, Clock::now());
        layers.ftlS += static_cast<double>(ns) / 1e9;
        if (rec.isWrite()) {
            layers.ftlWriteNs.record(ns);
            ++layers.ftlWrites;
            layers.gcSteps += buf.gcSteps.size();
        } else {
            layers.ftlReadNs.record(ns);
        }
        const std::size_t first = pending.size();
        for (const FlashStep &s : buf.userSteps)
            pending.push_back({rec.arrival, s.ppn, s.op, false});
        for (const FlashStep &s : buf.gcSteps)
            pending.push_back({rec.arrival, s.ppn, s.op, true});
        for (std::size_t i = first; i < pending.size(); ++i) {
            const ReplayStep &s = pending[i];
            model.scheduleOp(s.op, s.ppn, s.earliest, s.gc);
        }
        if (pending.size() >= kNandBatch)
            charge();
    }
    charge();
    layers.nandRequests += records.size();
    ftl.checkConsistency();
    if (pool) {
        for (auto [from, to] :
             {std::pair{&pool->lookup, &layers.dvpLookup},
              std::pair{&pool->insert, &layers.dvpInsert},
              std::pair{&pool->erase, &layers.dvpErase}}) {
            to->calls += from->calls;
            to->ns += from->ns;
        }
    }
}

// ---------------------------------------------------------------------
// Repeats
// ---------------------------------------------------------------------

/**
 * One simulated drive serving one record stream. Every cell is fed
 * through Ssd::run(TraceSource &), the admission pump every replay
 * uses; its StatSet is byte-identical to Ssd::run(records).
 */
struct Cell
{
    std::string label;
    SsdConfig cfg;
    /** Streamed input, decoded ahead on a producer thread. */
    TraceSourceFactory factory;
    /** Materialized input: streamed from memory when there is no
     *  factory; always the functional replay's input when traced. */
    const std::vector<TraceRecord> *records = nullptr;
};

struct CellRun
{
    SimResult result;
    double setupS = 0.0; //!< construct + prefill
    double runS = 0.0;   //!< Ssd::run + result
};

CellRun
runCell(const Cell &cell, PhaseTrace *trace, Layers *layers)
{
    CellRun out;
    std::unique_ptr<Ssd> ssd;
    out.setupS += phase(trace, cell.label + " construct",
                        [&] { ssd = std::make_unique<Ssd>(cell.cfg); });
    const double prefill_s =
        phase(trace, cell.label + " prefill", [&] { ssd->prefill(); });
    out.setupS += prefill_s;

    double next_s = 0.0;
    out.runS += phase(trace, cell.label + " run", [&] {
        std::unique_ptr<TraceSource> src =
            cell.factory ? maybePrefetch(cell.factory(),
                                         PrefetchSource::kDefaultBatch)
                         : std::make_unique<RecordsSource>(*cell.records);
        if (!layers) {
            ssd->run(*src);
            return;
        }
        TimedSource timed(*src, layers->admitGapNs);
        ssd->run(timed);
        next_s = timed.insideSeconds();
    });
    out.runS += phase(trace, cell.label + " result",
                      [&] { out.result = ssd->result(); });
    ssd->ftl().checkConsistency();

    if (layers) {
        const SimResult &r = out.result;
        layers->runS += out.runS;
        layers->nextS += next_s;
        layers->events += r.events;
        layers->requests += r.requests;
        layers->cache.hits += r.readCache.hits;
        layers->cache.misses += r.readCache.misses;
        layers->blockedAdmissions += r.hostQueue.blockedAdmissions;
        layers->oooCompletions += r.oooCompletions;
        layers->prefillS += prefill_s;
        layers->prefillPages += static_cast<std::uint64_t>(
            cell.cfg.prefillFraction *
            static_cast<double>(cell.cfg.logicalPages));
        layers->dvp.lookups += r.dvpStats.lookups;
        layers->dvp.hits += r.dvpStats.hits;
        layers->dvp.capacityEvictions += r.dvpStats.capacityEvictions;
        layers->dvp.gcEvictions += r.dvpStats.gcEvictions;
        layers->dedup.lookups += r.dedupStats.lookups;
        layers->dedup.hits += r.dedupStats.hits;
        layers->dieUtilSum +=
            ssd->resourceModel().dieUtilization(r.makespan);
        layers->maxDieBacklog =
            std::max(layers->maxDieBacklog, r.maxDieBacklog);
        ++layers->cells;

        ssd.reset(); // the replay below builds its own drive state
        phase(trace, cell.label + " ftl replay",
              [&] { replayFtl(cell.cfg, *cell.records, *layers); });
    }
    return out;
}

struct Repeat
{
    double setupS = 0.0;
    double runS = 0.0;
    /** Records fed to each cell. */
    std::uint64_t fedPerCell = 0;
    std::vector<std::string> labels;
    std::vector<SimResult> results;
    /** Extra check of a traced grid repeat: standalone cells must
     *  reproduce the grid's cells. */
    bool standaloneMatches = true;
    std::vector<Layers::Value> layers;

    std::uint64_t fed() const { return fedPerCell * results.size(); }

    /** What the digest covers: every cell's StatSet, in order. */
    std::string
    statText() const
    {
        std::string text;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results.size() > 1)
                text += "cell " + labels[i] + "\n";
            text += results[i].toStatSet().format();
        }
        return text;
    }

    bool
    requestsMatch() const
    {
        return std::all_of(results.begin(), results.end(),
                           [this](const SimResult &r) {
                               return r.requests == fedPerCell;
                           });
    }
};

struct Context
{
    const WorkloadSpec &spec;
    std::uint64_t seed;
    std::string fiuPath; //!< rendered FIU trace (FIU workloads)
    std::string tmpDir;  //!< grid spool directory
};

Repeat
repeatGenerated(const Context &ctx, PhaseTrace *trace, Layers *layers,
                double paired_run_s)
{
    Repeat rep;
    std::vector<TraceRecord> records;
    Lpn max_lpn = 0;
    const double gen_s = phase(trace, "generate", [&] {
        records = SyntheticTraceGenerator(
                      WorkloadProfile::preset(ctx.spec.preset, 1,
                                              ctx.spec.requests, ctx.seed))
                      .generateAll();
        for (const TraceRecord &rec : records)
            max_lpn = std::max(max_lpn, rec.lpn);
    });
    const Cell cell{ctx.spec.name,
                    makeConfig(max_lpn + 1, ctx.spec.system,
                               ctx.spec.queueDepth),
                    {}, &records};
    const CellRun run = runCell(cell, trace, layers);
    rep.setupS = gen_s + run.setupS;
    rep.runS = run.runS;
    rep.fedPerCell = records.size();
    rep.labels = {cell.label};
    rep.results = {run.result};
    if (layers) {
        layers->genS += gen_s;
        layers->records += records.size();
        layers->tracedS += run.runS;
        layers->untracedS += paired_run_s;
    }
    return rep;
}

/** Drain a fresh decode of @p scan: the records the FTL replay uses. */
std::vector<TraceRecord>
decodeAll(const ScannedTrace &scan, PhaseTrace *trace, Layers &layers)
{
    std::vector<TraceRecord> records;
    layers.decodeS += phase(trace, "decode", [&] {
        records.reserve(scan.records);
        const auto src = scan.factory();
        TraceRecord rec;
        while (src->next(rec))
            records.push_back(rec);
    });
    return records;
}

Repeat
repeatFiuReplay(const Context &ctx, PhaseTrace *trace, Layers *layers,
                double paired_run_s)
{
    Repeat rep;
    ScannedTrace scan;
    const double scan_s =
        phase(trace, "scan", [&] { scan = scanFiu(ctx.fiuPath); });
    std::vector<TraceRecord> decoded;
    if (layers)
        decoded = decodeAll(scan, trace, *layers);
    const Cell cell{ctx.spec.name,
                    makeConfig(scan.footprintPages, ctx.spec.system,
                               ctx.spec.queueDepth),
                    scan.factory, layers ? &decoded : nullptr};
    const CellRun run = runCell(cell, trace, layers);
    rep.setupS = scan_s + run.setupS;
    rep.runS = run.runS;
    rep.fedPerCell = scan.records;
    rep.labels = {cell.label};
    rep.results = {run.result};
    if (layers) {
        layers->scanS += scan_s;
        layers->records += scan.records;
        layers->tracedS += run.runS;
        layers->untracedS += paired_run_s;
    }
    return rep;
}

/**
 * Untraced: scan, then one runGridOnScannedTrace call (the timed
 * region). Traced: spool and decode once, run every cell serially
 * through runSystemOnScannedTrace (untraced, for the parallel
 * efficiency) and again instrumented; @p grid_wall_s is the paired
 * untraced repeat's grid wall.
 */
Repeat
repeatGrid(const Context &ctx, PhaseTrace *trace, Layers *layers,
           double grid_wall_s)
{
    Repeat rep;
    ScannedTrace scan;
    rep.setupS =
        phase(trace, "scan", [&] { scan = scanFiu(ctx.fiuPath); });
    rep.fedPerCell = scan.records;
    const GridSpec spec = parseGridSpec(kGridSpec);
    ExperimentOptions base;
    base.poolCapacity = kPoolEntries;
    base.queueDepth = ctx.spec.queueDepth;

    if (!layers) {
        std::vector<GridCellResult> cells;
        rep.runS = phase(trace, "grid", [&] {
            cells = runGridOnScannedTrace(scan, spec, ctx.spec.system,
                                          base, kGridJobs,
                                          kSpoolBudgetBytes, ctx.tmpDir);
        });
        for (GridCellResult &c : cells) {
            rep.labels.push_back(c.label);
            rep.results.push_back(std::move(c.result));
        }
        return rep;
    }

    layers->scanS += rep.setupS;
    layers->records += scan.records;
    layers->gridWallS = grid_wall_s;
    std::optional<TraceSpool> spool;
    layers->spoolS += phase(trace, "spool", [&] {
        spool.emplace(scan, kSpoolBudgetBytes, ctx.tmpDir);
    });
    ScannedTrace spooled;
    spooled.factory = spool->factory();
    spooled.records = scan.records;
    spooled.footprintPages = scan.footprintPages;
    spooled.tenantPages = scan.tenantPages;
    const std::vector<TraceRecord> decoded =
        decodeAll(scan, trace, *layers);

    std::string standalone_text;
    for (const GridCell &gc : expandGrid(spec, ctx.spec.system, base)) {
        SimResult standalone;
        const double wall =
            phase(trace, gc.label + " standalone", [&] {
                standalone =
                    runSystemOnScannedTrace(spooled, gc.system, gc.opts);
            });
        layers->standaloneWallSum += wall;
        layers->standaloneWallMax =
            std::max(layers->standaloneWallMax, wall);
        layers->untracedS += wall;
        standalone_text +=
            "cell " + gc.label + "\n" + standalone.toStatSet().format();

        const Cell cell{gc.label,
                        makeConfig(scan.footprintPages, gc.system,
                                   gc.opts.queueDepth),
                        spool->factory(), &decoded};
        const CellRun run = runCell(cell, trace, layers);
        layers->tracedS += run.setupS + run.runS;
        rep.labels.push_back(gc.label);
        rep.results.push_back(run.result);
    }
    rep.standaloneMatches = standalone_text == rep.statText();
    return rep;
}

Repeat
runRepeat(const Context &ctx, PhaseTrace *trace, Layers *layers,
          double paired_run_s)
{
    switch (ctx.spec.input) {
      case InputKind::Generated:
        return repeatGenerated(ctx, trace, layers, paired_run_s);
      case InputKind::FiuReplay:
        return repeatFiuReplay(ctx, trace, layers, paired_run_s);
      case InputKind::FiuGrid:
        return repeatGrid(ctx, trace, layers, paired_run_s);
    }
    zombie_panic("unreachable input kind");
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The digest @p path records for (@p workload, @p seed), if any.
 *  Lines: "<workload> <seed> <digest>"; '#' starts a comment. */
std::optional<std::string>
expectedDigest(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    if (path.empty())
        return std::nullopt;
    std::ifstream in(path);
    if (!in)
        zombie_fatal("cannot read digests file ", path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest;
        std::uint64_t s = 0;
        if (!(fields >> name >> s >> digest))
            zombie_fatal("malformed line in ", path, ": '", line, "'");
        if (name == workload && s == seed)
            return digest;
    }
    return std::nullopt;
}

/** Median and quartiles as Python's statistics.quantiles(n=4). */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    q.n = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const auto at = [&v](double p) {
        const double rank = p * static_cast<double>(v.size() + 1);
        if (rank <= 1.0)
            return v.front();
        if (rank >= static_cast<double>(v.size()))
            return v.back();
        const auto j = static_cast<std::size_t>(rank);
        const double frac = rank - static_cast<double>(j);
        return v[j - 1] + frac * (v[j] - v[j - 1]);
    };
    q.q1 = at(0.25);
    q.median = at(0.5);
    q.q3 = at(0.75);
    return q;
}

struct Metric
{
    std::string name;
    std::string unit;
    Quartiles value;
};

Metric
single(const std::string &name, const std::string &unit, double v)
{
    return {name, unit, quartiles({v})};
}

/**
 * Simulated results of every cell, pooled. They are deterministic per
 * seed. The first two vary across seeds by a few percent and are
 * bounded end-to-end metrics; the latencies and the revival fraction
 * swing by up to a quarter between seeds (GC bursts, saturated
 * cells), so they are reported unbounded and guarded exactly by the
 * StatSet digest instead.
 */
struct Simulated
{
    std::vector<Metric> bounded;
    std::vector<Metric> reported;
};

Simulated
simulatedMetrics(const std::vector<SimResult> &results)
{
    double writes = 0.0, programs = 0.0, erases = 0.0, revivals = 0.0;
    LatencyHistogram all, read, write;
    for (const SimResult &r : results) {
        writes += static_cast<double>(r.writes);
        programs += static_cast<double>(r.flashPrograms);
        erases += static_cast<double>(r.flashErases);
        revivals += static_cast<double>(r.dvpRevivals);
        all.merge(r.allLatency);
        read.merge(r.readLatency);
        write.merge(r.writeLatency);
    }
    const auto us = [](std::uint64_t ticks) {
        return static_cast<double>(ticks) / 1000.0;
    };
    return {
        {single("sim_write_amp", "ratio", ratio(programs, writes)),
         single("sim_erases_per_kwrite", "count",
                ratio(erases * 1000.0, writes))},
        {single("sim_mean_us", "us", all.mean() / 1000.0),
         single("sim_read_p99_us", "us", us(read.percentile(0.99))),
         single("sim_write_p99_us", "us", us(write.percentile(0.99))),
         single("sim_p999_us", "us", us(all.percentile(0.999))),
         single("sim_revival_frac", "ratio", ratio(revivals, writes))},
    };
}

#if defined(__clang__)
const char *const kCompiler = "clang " __clang_version__;
#else
const char *const kCompiler = "gcc " __VERSION__;
#endif

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        zombie_panic("non-finite metric value");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("End-to-end and per-layer benchmark of the simulator "
                   "(one workload per process)");
    args.addOption("workload", "", "workload to run (see --list)");
    args.addOption("seed", "42", "seed every input is generated from");
    args.addOption("seconds", "10",
                   "measure for this long (at least 3 repeats)");
    args.addOption("trace", "0",
                   "1 = traced run reporting per-layer metrics");
    args.addOption("digests", "",
                   "file of expected StatSet digests per workload "
                   "and seed");
    args.addOption("trace-out", "",
                   "traced run: write phase spans here as Chrome "
                   "trace_event JSON");
    args.addOption("tmp-dir", ".",
                   "directory for the rendered FIU trace and the grid "
                   "spool (a private subdirectory, removed on exit)");
    args.addFlag("list", "print the workload names and exit");
    args.parse(argc, argv);

    if (args.getFlag("list")) {
        for (const WorkloadSpec &w : kWorkloads)
            std::printf("%s\n", w.name);
        return 0;
    }
    if (args.getString("workload").empty())
        zombie_fatal("--workload is required (see --list)");
    const WorkloadSpec &spec = findWorkload(args.getString("workload"));
    const std::uint64_t seed = args.getUint("seed");
    const double seconds = args.getDouble("seconds");
    const bool traced = args.getUint("trace") != 0;
    const std::optional<std::string> expected =
        expectedDigest(args.getString("digests"), spec.name, seed);

    const ScratchDir scratch(args.getString("tmp-dir"));
    Context ctx{spec, seed, "", scratch.path()};
    if (spec.input != InputKind::Generated) {
        ctx.fiuPath = scratch.path() + "/" + spec.name + ".blkio";
        renderFiuTrace(spec, seed, ctx.fiuPath);
    }

    // Warm-up: caches, page faults and lazy set-up settle before any
    // repeat is timed. Its digest is the reference for the others.
    std::vector<Repeat> repeats;
    repeats.push_back(runRepeat(ctx, nullptr, nullptr, 0.0));
    const std::size_t first_timed = 1;
    // Peak memory of one full repeat in a fresh process; later repeats
    // only add allocator slack, and how many run depends on host speed.
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::vector<Repeat> traced_repeats;
    PhaseTrace trace;
    const auto start = Clock::now();
    const auto more = [&](std::size_t done) {
        return done < (traced ? 1 : kMinRepeats) ||
               secondsBetween(start, Clock::now()) < seconds;
    };
    for (std::size_t done = 0; more(done); ++done) {
        repeats.push_back(runRepeat(ctx, nullptr, nullptr, 0.0));
        if (!traced)
            continue;
        Layers layers;
        Repeat rep;
        phase(&trace, "traced repeat", [&] {
            rep = runRepeat(ctx, &trace, &layers, repeats.back().runS);
        });
        rep.layers = layers.finish();
        traced_repeats.push_back(std::move(rep));
    }

    // Correctness over every repeat run, warm-up and traced included.
    const std::string digest = hex64(fnv1a(repeats.front().statText()));
    std::uint64_t attempted = 0, failed = 0;
    const auto check = [&](const Repeat &rep) {
        const bool ok = rep.requestsMatch() && rep.standaloneMatches &&
                        hex64(fnv1a(rep.statText())) == digest &&
                        (!expected || *expected == digest);
        attempted += rep.fed();
        if (!ok)
            failed += rep.fed();
    };
    for (const Repeat &rep : repeats)
        check(rep);
    for (const Repeat &rep : traced_repeats)
        check(rep);

    Simulated simulated = simulatedMetrics(repeats.front().results);
    std::vector<Metric> metrics;
    if (!traced) {
        std::vector<double> rates, setups;
        for (std::size_t i = first_timed; i < repeats.size(); ++i) {
            rates.push_back(ratio(static_cast<double>(repeats[i].fed()),
                                  repeats[i].runS));
            setups.push_back(repeats[i].setupS);
        }
        metrics.push_back({"reqs_per_s", "req/s", quartiles(rates)});
        metrics.push_back({"setup_s", "s", quartiles(setups)});
        metrics.push_back(single("peak_rss_mb", "MB", peak_rss_mb));
        for (Metric &m : simulated.bounded)
            metrics.push_back(std::move(m));
    } else {
        const auto &first = traced_repeats.front().layers;
        for (std::size_t i = 0; i < first.size(); ++i) {
            std::vector<double> values;
            for (const Repeat &rep : traced_repeats)
                values.push_back(rep.layers[i].value);
            metrics.push_back(
                {first[i].name, first[i].unit, quartiles(values)});
        }
        if (!args.getString("trace-out").empty())
            trace.write(args.getString("trace-out"));
    }

    // Human-readable report.
    std::printf("workload %s  seed %llu  %s  repeats %zu + 1 warm-up%s\n",
                spec.name, static_cast<unsigned long long>(seed),
                traced ? "traced" : "untraced",
                repeats.size() - first_timed,
                traced ? " (each paired with a traced repeat)" : "");
    std::printf("digest %s  expected %s  requests attempted %llu "
                "failed %llu\n",
                digest.c_str(),
                expected ? (*expected == digest ? "match" : "MISMATCH")
                         : "(none recorded for this seed)",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const auto print = [](const std::vector<Metric> &list) {
        for (const Metric &m : list) {
            std::printf("  %-28s %16.6g %-10s", m.name.c_str(),
                        m.value.median, m.unit.c_str());
            if (m.value.n > 1)
                std::printf(" [q1 %.6g, q3 %.6g] n=%zu", m.value.q1,
                            m.value.q3, m.value.n);
            std::printf("\n");
        }
    };
    print(metrics);
    std::printf("simulated, deterministic per seed (not bounded):\n");
    print(simulated.reported);

    // Detail line: quartiles, counts, digest, simulated results, host.
    const auto json = [](const std::vector<Metric> &list) {
        std::string out = "{";
        for (std::size_t i = 0; i < list.size(); ++i) {
            const Metric &m = list[i];
            out += (i ? ", " : "") + jsonString(m.name) +
                   ": {\"q1\": " + jsonNumber(m.value.q1) +
                   ", \"median\": " + jsonNumber(m.value.median) +
                   ", \"q3\": " + jsonNumber(m.value.q3) +
                   ", \"n\": " + std::to_string(m.value.n) + "}";
        }
        return out + "}";
    };
    std::string detail =
        "{\"detail\": {\"workload\": " + jsonString(spec.name) +
        ", \"seed\": " + std::to_string(seed) +
        ", \"digest\": " + jsonString(digest) +
        ", \"metrics\": " + json(metrics) +
        ", \"simulated\": " + json(simulated.reported);
    detail += ", \"host\": {\"nproc\": " +
              std::to_string(std::thread::hardware_concurrency()) +
              ", \"compiler\": " + jsonString(kCompiler) +
              ", \"build_type\": " + jsonString(ZOMBIE_BENCH_BUILD_TYPE) +
              "}}}";
    std::printf("%s\n", detail.c_str());

    std::string result =
        std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        result += (i ? ", " : "") + jsonString(m.name) +
                  ": {\"value\": " + jsonNumber(m.value.median) +
                  ", \"unit\": " + jsonString(m.unit) + "}";
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    return 0;
}

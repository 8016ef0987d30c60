/**
 * @file
 * Microbenchmarks (google-benchmark) for the typed event engine: raw
 * schedule/dispatch throughput and the heap behaviour under the
 * controller-like pattern of chained rescheduling. These are the
 * per-event constants behind the simulator's events/sec figure.
 *
 * After the microbenches, a real simulation cell (mail on MQ-DVP)
 * runs once and reports the per-kind dispatch histogram: which
 * kinds of event the engine spends its dispatches on.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>

#include "bench_common.hh"
#include "sim/ssd.hh"
#include "trace/generator.hh"
#include "util/alloc_counter.hh"
#include "util/random.hh"

namespace
{

using namespace zombie;

/** Sink that counts dispatches and optionally chains a future event. */
struct CountingSink : public EventSink
{
    EventEngine *engine = nullptr;
    std::uint64_t count = 0;
    std::uint64_t chain = 0; //!< events each dispatch reschedules

    void
    event(Tick now, EventKind, std::uint32_t, std::uint64_t arg) override
    {
        ++count;
        if (chain && arg) {
            engine->schedule(now + 3, EventKind::FlashDone, 0,
                             arg - 1);
        }
    }
};

/** Fill the heap with n events at scattered ticks, then drain it. */
void
BM_ScheduleDrain(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    EventEngine engine;
    CountingSink sink;
    engine.setSink(&sink);
    engine.reserve(n);
    Xoshiro256 rng(11);

    for (auto _ : state) {
        const Tick base = engine.now();
        for (std::uint64_t i = 0; i < n; ++i) {
            engine.schedule(base + 1 + rng.nextBounded(1024),
                            EventKind::FlashDone, 0, 0);
        }
        engine.run();
        benchmark::DoNotOptimize(sink.count);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

/**
 * Controller-like pattern: a small window of in-flight events, each
 * dispatch rescheduling the next — the heap stays shallow and hot.
 */
void
BM_ChainedDispatch(benchmark::State &state)
{
    const auto window = static_cast<std::uint64_t>(state.range(0));
    const std::uint64_t hops = 1024;
    EventEngine engine;
    CountingSink sink;
    sink.engine = &engine;
    sink.chain = 1;
    engine.setSink(&sink);
    engine.reserve(window);

    for (auto _ : state) {
        const Tick base = engine.now();
        for (std::uint64_t w = 0; w < window; ++w)
            engine.schedule(base + 1 + w, EventKind::FlashDone, 0,
                            hops);
        engine.run();
        benchmark::DoNotOptimize(sink.count);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * window * hops));
}

/** Steady-state allocation count per drained batch (must be zero). */
void
BM_SteadyStateAllocs(benchmark::State &state)
{
    const std::uint64_t n = 4096;
    EventEngine engine;
    CountingSink sink;
    engine.setSink(&sink);
    engine.reserve(n);
    Xoshiro256 rng(13);

    // Warm the heap to its high-water mark.
    for (std::uint64_t i = 0; i < n; ++i)
        engine.schedule(1 + rng.nextBounded(64), EventKind::GcTail);
    engine.run();

    std::uint64_t allocs = 0;
    for (auto _ : state) {
        const Tick base = engine.now();
        const std::uint64_t before = heapAllocCount();
        for (std::uint64_t i = 0; i < n; ++i) {
            engine.schedule(base + 1 + rng.nextBounded(64),
                            EventKind::GcTail);
        }
        engine.run();
        allocs += heapAllocCount() - before;
    }
    state.counters["allocs_per_batch"] =
        benchmark::Counter(static_cast<double>(allocs) /
                           static_cast<double>(state.iterations()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::HostArrival:  return "HostArrival";
      case EventKind::DispatchDone: return "DispatchDone";
      case EventKind::FlashDone:    return "FlashDone";
      case EventKind::GcTail:       return "GcTail";
      case EventKind::StatsSample:  return "StatsSample";
    }
    return "?";
}

/** Run mail on MQ-DVP once and report the dispatch histogram. */
void
reportRealCell(std::uint64_t requests)
{
    const WorkloadProfile profile =
        WorkloadProfile::preset(Workload::Mail, 1, requests, 42);
    SsdConfig cfg = SsdConfig::forProfile(profile, SystemKind::MqDvp);
    cfg.mq.capacity = 5'000;
    cfg.queueDepth = 8;

    Ssd ssd(cfg);
    VectorSource src(SyntheticTraceGenerator(profile).generateAll());
    ssd.run(src);
    const SimResult result = ssd.result();
    const EventEngine &engine = ssd.events();

    std::printf("\ndispatch histogram (mail/mq-dvp, %llu requests):\n",
                static_cast<unsigned long long>(requests));
    TextTable table({"kind", "dispatched", "share"});
    const double total = static_cast<double>(result.events);
    for (std::uint32_t k = 0; k < kNumEventKinds; ++k) {
        const auto kind = static_cast<EventKind>(k);
        const std::uint64_t n = engine.dispatchedOfKind(kind);
        table.addRow({kindName(kind), std::to_string(n),
                      TextTable::pct(total > 0.0
                                         ? static_cast<double>(n) /
                                               total
                                         : 0.0)});
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

BENCHMARK(BM_ScheduleDrain)->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK(BM_ChainedDispatch)->Arg(1)->Arg(32);
BENCHMARK(BM_SteadyStateAllocs);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    reportRealCell(30'000);

    bench::paperShape(
        "per-event cost grows with the heap (a 4-ary heap is "
        "O(log n)), which is why arrivals and dispatch-done ride "
        "O(1) monotone lanes and the heap holds only the in-flight "
        "window; a real cell dispatches one HostArrival, one "
        "DispatchDone and one FlashDone per request, plus a GcTail "
        "whenever GC outlasts the command and a StatsSample per "
        "epoch when sampling.");
    return 0;
}

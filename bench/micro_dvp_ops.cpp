/**
 * @file
 * Microbenchmarks (google-benchmark) for dead-value-pool operations:
 * the per-write costs the device controller pays. The paper argues
 * the scheme "can scale very well with the increased SSD capacity" —
 * these benches quantify the per-operation constants.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "dvp/lx_dvp.hh"
#include "dvp/mq_dvp.hh"
#include "util/random.hh"

namespace
{

using namespace zombie;

std::unique_ptr<DeadValuePool>
makePool(const std::string &kind, std::uint64_t capacity)
{
    if (kind == "lx")
        return std::make_unique<LxDvp>(capacity);
    MqDvpConfig cfg{.capacity = capacity};
    if (kind == "lru")
        cfg.numQueues = 1; // LRU is the MQ pool with one queue
    return std::make_unique<MqDvp>(cfg);
}

/** Steady-state mixed workload: insert a death, look up a write. */
void
runMixed(benchmark::State &state, const std::string &kind)
{
    const auto capacity = static_cast<std::uint64_t>(state.range(0));
    auto pool = makePool(kind, capacity);
    Xoshiro256 rng(7);
    const std::uint64_t values = capacity * 2;
    Ppn next_ppn = 0;

    // Warm the pool to capacity.
    for (std::uint64_t i = 0; i < capacity; ++i) {
        pool->insertGarbage(Fingerprint::fromValueId(i % values), i,
                            next_ppn++, static_cast<std::uint8_t>(i));
    }

    for (auto _ : state) {
        const std::uint64_t v = rng.nextBounded(values);
        pool->insertGarbage(Fingerprint::fromValueId(v), v,
                            next_ppn++,
                            static_cast<std::uint8_t>(v & 0xff));
        const auto r =
            pool->lookupForWrite(Fingerprint::fromValueId(
                                     rng.nextBounded(values)),
                                 v);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

void
BM_MqDvpMixed(benchmark::State &state)
{
    runMixed(state, "mq");
}

void
BM_LruDvpMixed(benchmark::State &state)
{
    runMixed(state, "lru");
}

void
BM_LxDvpMixed(benchmark::State &state)
{
    runMixed(state, "lx");
}

void
BM_MqDvpOnErase(benchmark::State &state)
{
    MqDvpConfig cfg;
    cfg.capacity = static_cast<std::uint64_t>(state.range(0));
    MqDvp pool(cfg);
    Ppn next_ppn = 0;
    for (std::uint64_t i = 0; i < cfg.capacity; ++i) {
        pool.insertGarbage(Fingerprint::fromValueId(i), i, next_ppn++,
                           1);
    }
    Ppn probe = 0;
    for (auto _ : state) {
        pool.onErase(probe % next_ppn); // mostly stale after a while
        ++probe;
    }
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK(BM_MqDvpMixed)->Arg(10'000)->Arg(200'000);
BENCHMARK(BM_LruDvpMixed)->Arg(10'000)->Arg(200'000);
BENCHMARK(BM_LxDvpMixed)->Arg(10'000)->Arg(200'000);
BENCHMARK(BM_MqDvpOnErase)->Arg(200'000);

BENCHMARK_MAIN();

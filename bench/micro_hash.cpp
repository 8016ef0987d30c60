/**
 * @file
 * Microbenchmarks (google-benchmark) for the content hashes. The
 * paper charges 12us for hashing a 4KB chunk in dedicated hardware
 * [35]; these benches report what the software digests cost, and
 * what naming synthetic content by value id costs instead.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "hash/fingerprint.hh"
#include "hash/md5.hh"
#include "hash/sha1.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace
{

using namespace zombie;

std::vector<std::uint8_t>
makePage()
{
    std::vector<std::uint8_t> page(kPageSize);
    Xoshiro256 rng(3);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng());
    return page;
}

void
runDigest(benchmark::State &state,
          Fingerprint (*digest)(const void *, std::size_t))
{
    const auto page = makePage();
    for (auto _ : state) {
        const Fingerprint fp = digest(page.data(), page.size());
        benchmark::DoNotOptimize(fp);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kPageSize));
}

void
BM_Md5Page(benchmark::State &state)
{
    runDigest(state, Md5::digest);
}

void
BM_Sha1Page(benchmark::State &state)
{
    runDigest(state, Sha1::digest);
}

void
BM_ValueIdFingerprint(benchmark::State &state)
{
    std::uint64_t id = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(Fingerprint::fromValueId(id++));
    }
}

} // namespace

BENCHMARK(BM_Md5Page);
BENCHMARK(BM_Sha1Page);
BENCHMARK(BM_ValueIdFingerprint);

BENCHMARK_MAIN();

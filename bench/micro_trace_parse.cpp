/**
 * @file
 * Microbenchmarks (google-benchmark) for the external block-trace
 * frontend: records/s through each streaming parser (FIU blkio, MSR
 * CSV, generic CSV), the full adapter chain (split + fingerprint
 * synthesis + compaction), and — after the microbenches — a
 * prefetched-vs-inline replay comparison on a one-million-record
 * fixture, the wall-clock and allocation numbers behind the
 * bounded-memory replay claim (DESIGN.md section 7.16).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.hh"
#include "sim/experiment.hh"
#include "trace/adapters.hh"
#include "trace/formats.hh"
#include "trace/prefetch.hh"
#include "util/alloc_counter.hh"
#include "util/buffered_reader.hh"
#include "util/byte_source.hh"
#include "util/random.hh"

#if BENCH_HAVE_ZLIB
#include <zlib.h>
#endif

namespace
{

using namespace zombie;

constexpr std::uint64_t kParseRecords = 200'000;
constexpr std::uint64_t kReplayRecords = 1'000'000;
constexpr std::uint64_t kFootprintPages = 20'000;

std::string
fixtureDir()
{
    const char *tmp = std::getenv("TMPDIR");
    return std::string(tmp ? tmp : "/tmp") + "/";
}

/** Deterministic request shape shared by every fixture writer. */
struct FixtureRequest
{
    std::uint64_t page;
    std::uint64_t pages;
    bool write;
    std::uint64_t ts; //!< ns
};

FixtureRequest
fixtureRequest(Xoshiro256 &rng, std::uint64_t index)
{
    FixtureRequest req;
    req.page = rng.nextBounded(kFootprintPages);
    req.pages = 1 + rng.nextBounded(3);
    req.write = rng.nextBounded(100) < 70;
    req.ts = index * 2'500 + rng.nextBounded(500);
    return req;
}

/** Write the fixture once; reused across iterations and runs. */
const std::string &
csvFixture(std::uint64_t records)
{
    static std::string path;
    static std::uint64_t written = 0;
    if (written == records)
        return path;
    path = fixtureDir() + "zombie_parse_bench_" +
           std::to_string(records) + ".csv";
    std::ofstream out(path);
    out << "lba,size,op,ts\n";
    Xoshiro256 rng(7);
    for (std::uint64_t i = 0; i < records; ++i) {
        const FixtureRequest req = fixtureRequest(rng, i);
        out << req.page << ',' << req.pages * kPageSize << ','
            << (req.write ? 'W' : 'R') << ',' << req.ts << '\n';
    }
    written = records;
    return path;
}

const std::string &
fiuFixture(std::uint64_t records)
{
    static std::string path;
    static std::uint64_t written = 0;
    if (written == records)
        return path;
    path = fixtureDir() + "zombie_parse_bench_" +
           std::to_string(records) + ".blkio";
    std::ofstream out(path);
    Xoshiro256 rng(7);
    for (std::uint64_t i = 0; i < records; ++i) {
        const FixtureRequest req = fixtureRequest(rng, i);
        // FILETIME ticks, 512B sectors, one MD5 per record.
        out << req.ts / 100 << " 1234 bench " << req.page * 8 << ' '
            << req.pages * 8 << ' ' << (req.write ? 'W' : 'R')
            << " 8 0 "
            << Fingerprint::fromValueId(rng.nextBounded(50'000)).hex()
            << '\n';
    }
    written = records;
    return path;
}

const std::string &
msrFixture(std::uint64_t records)
{
    static std::string path;
    static std::uint64_t written = 0;
    if (written == records)
        return path;
    path = fixtureDir() + "zombie_parse_bench_" +
           std::to_string(records) + ".msr";
    std::ofstream out(path);
    out << "Timestamp,Hostname,DiskNumber,Type,Offset,Size,"
           "ResponseTime\n";
    Xoshiro256 rng(7);
    constexpr std::uint64_t kFiletimeBase = 128166372000000000ULL;
    for (std::uint64_t i = 0; i < records; ++i) {
        const FixtureRequest req = fixtureRequest(rng, i);
        out << kFiletimeBase + req.ts / 100 << ",bench,0,"
            << (req.write ? "Write" : "Read") << ','
            << req.page * kPageSize << ',' << req.pages * kPageSize
            << ",100\n";
    }
    written = records;
    return path;
}

/** Gzip the CSV fixture once; empty path when built without zlib. */
const std::string &
gzCsvFixture(std::uint64_t records)
{
    static std::string path;
    static std::uint64_t written = 0;
    if (written == records)
        return path;
#if BENCH_HAVE_ZLIB
    const std::string &plain = csvFixture(records);
    path = plain + ".gz";
    std::ifstream in(plain, std::ios::binary);
    gzFile out = gzopen(path.c_str(), "wb1");
    char block[1 << 16];
    while (in.read(block, sizeof(block)) || in.gcount() > 0)
        gzwrite(out, block, static_cast<unsigned>(in.gcount()));
    gzclose(out);
#else
    path.clear();
#endif
    written = records;
    return path;
}

/** Drain one raw parser; return records parsed. */
template <typename Source>
std::uint64_t
drainParser(const std::string &path)
{
    Source src(path);
    RawIoRecord rec;
    std::uint64_t n = 0;
    while (src.next(rec))
        ++n;
    return n;
}

void
BM_ParseFiuBlkio(benchmark::State &state)
{
    const std::string &path = fiuFixture(kParseRecords);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drainParser<FiuBlkioSource>(path));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kParseRecords));
}

void
BM_ParseMsrCsv(benchmark::State &state)
{
    const std::string &path = msrFixture(kParseRecords);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drainParser<MsrCsvSource>(path));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kParseRecords));
}

void
BM_ParseGenericCsv(benchmark::State &state)
{
    const std::string &path = csvFixture(kParseRecords);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drainParser<GenericCsvSource>(path));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kParseRecords));
}

/** Raw line-split rate of the buffered reader, no field parsing. */
void
BM_BufferedLineReader(benchmark::State &state)
{
    const std::string &path = csvFixture(kParseRecords);
    std::uint64_t lines = 0;
    for (auto _ : state) {
        BufferedLineReader reader(openByteSource(path));
        std::string_view line;
        lines = 0;
        while (reader.nextLine(line))
            ++lines;
        benchmark::DoNotOptimize(lines);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines));
}

/** Transparent gzip decode + line split (the `.csv.gz` ingest path). */
void
BM_GzipDecodeLines(benchmark::State &state)
{
    if (!compressionSupported(Compression::Gzip)) {
        state.SkipWithError("built without zlib");
        return;
    }
    const std::string &path = gzCsvFixture(kParseRecords);
    std::uint64_t lines = 0;
    for (auto _ : state) {
        BufferedLineReader reader(openByteSource(path));
        std::string_view line;
        lines = 0;
        while (reader.nextLine(line))
            ++lines;
        benchmark::DoNotOptimize(lines);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines));
}

/** Full generic-CSV parse fed through the gzip decoder. */
void
BM_ParseGenericCsvGz(benchmark::State &state)
{
    if (!compressionSupported(Compression::Gzip)) {
        state.SkipWithError("built without zlib");
        return;
    }
    const std::string &path = gzCsvFixture(kParseRecords);
    for (auto _ : state) {
        benchmark::DoNotOptimize(drainParser<GenericCsvSource>(path));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kParseRecords));
}

/** The full chain: parse + 4KB split + synthesis + compaction. */
void
BM_AdapterChain(benchmark::State &state)
{
    ExternalTraceConfig cfg;
    cfg.path = csvFixture(kParseRecords);
    cfg.format = ExternalFormat::GenericCsv;
    cfg.versionPeriod = 8;
    const ScannedTrace scan = scanExternalTrace(cfg);
    std::uint64_t emitted = 0;
    for (auto _ : state) {
        const auto src = scan.factory();
        TraceRecord rec;
        emitted = 0;
        while (src->next(rec))
            ++emitted;
        benchmark::DoNotOptimize(emitted);
    }
    state.counters["records_out"] =
        benchmark::Counter(static_cast<double>(emitted));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(emitted));
}

/**
 * Replay the one-million-record fixture with and without decode-ahead
 * prefetch and report wall clock plus allocator traffic for both:
 * the same byte-identical result, with either path's heap bounded by
 * the footprint instead of the trace.
 */
void
reportReplayComparison()
{
    ExternalTraceConfig cfg;
    cfg.path = csvFixture(kReplayRecords);
    cfg.format = ExternalFormat::GenericCsv;
    cfg.versionPeriod = 8;
    cfg.summarize = false; // scan cost only where replay needs it
    const ScannedTrace scan = scanExternalTrace(cfg);

    struct Row
    {
        const char *mode;
        double wall_s;
        std::uint64_t allocs;
        std::uint64_t requests;
    };
    enum Mode { Prefetch, Streamed, kModes };
    Row rows[kModes];
    for (int mode = 0; mode < kModes; ++mode) {
        ExperimentOptions opts;
        opts.queueDepth = 8;
        opts.prefetchBatch =
            mode == Prefetch ? PrefetchSource::kDefaultBatch : 0;
        const std::uint64_t allocs_before = heapAllocCount();
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t requests =
            runSystemOnScannedTrace(scan, SystemKind::Baseline, opts)
                .requests;
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        static const char *const kNames[kModes] = {
            "prefetch", "streamed-inline"};
        rows[mode] = Row{kNames[mode], wall_s,
                         heapAllocCount() - allocs_before, requests};
    }

    std::printf("\nreplay comparison (%llu-record generic CSV, "
                "footprint %llu pages, baseline system):\n",
                static_cast<unsigned long long>(scan.records),
                static_cast<unsigned long long>(scan.footprintPages));
    TextTable table({"mode", "requests", "wall_s", "req_per_s",
                     "heap_allocs"});
    for (const Row &row : rows) {
        table.addRow(
            {row.mode, std::to_string(row.requests),
             TextTable::num(row.wall_s),
             TextTable::num(row.wall_s > 0.0
                                ? static_cast<double>(row.requests) /
                                      row.wall_s
                                : 0.0),
             std::to_string(row.allocs)});
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

BENCHMARK(BM_BufferedLineReader);
BENCHMARK(BM_GzipDecodeLines);
BENCHMARK(BM_ParseFiuBlkio);
BENCHMARK(BM_ParseMsrCsv);
BENCHMARK(BM_ParseGenericCsv);
BENCHMARK(BM_ParseGenericCsvGz);
BENCHMARK(BM_AdapterChain);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    reportReplayComparison();

    bench::paperShape(
        "all three parsers sustain millions of records/s, so ingest "
        "never gates replay, and gzip decode costs only a modest "
        "fraction of the plain-text line rate; the prefetched and "
        "inline-streamed runs finish in comparable wall time with "
        "identical results and footprint-sized allocator traffic — "
        "what makes 10-100M-request replays fit in memory.");
    return 0;
}

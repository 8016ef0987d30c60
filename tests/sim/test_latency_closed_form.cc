/**
 * @file
 * Closed-form latency checks of the timing model.
 *
 * Every expected value is derived from the TimingModel constants,
 * not copied from a run: at low load a write's latency is the sum
 * of its phases, and Poisson reads on a die with deterministic
 * service form an M/D/1 queue whose mean wait the
 * Pollaczek-Khinchine formula gives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/ssd.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

/**
 * Unique-content writes to unmapped pages, 10 ms apart: no queueing,
 * no GC, no revival and no dedup hit, so every write's latency is
 * its service time. On the Table I constants that is 406.4 us
 * without a hash engine and 418.4 us with one.
 */
void
checkIdleWriteService(SystemKind system)
{
    SsdConfig cfg;
    cfg.system = system;
    cfg.geom = Geometry(2, 2, 1, 1, 16, 64);
    cfg.logicalPages = 3500;
    cfg.prefillFraction = 0.5;
    cfg.mq.capacity = 1000;
    cfg.validate();

    std::vector<TraceRecord> records;
    for (std::uint64_t i = 0; i < 500; ++i) {
        TraceRecord rec;
        rec.arrival = ticksFromMs(10) * (i + 1);
        rec.op = OpType::Write;
        rec.lpn = 2000 + i;
        rec.fp = Fingerprint::fromValueId(1'000'000 + i);
        records.push_back(rec);
    }
    Ssd ssd(cfg);
    VectorSource src(std::move(records));
    ssd.run(src);
    const SimResult r = ssd.result();
    ASSERT_EQ(r.writes, 500u);
    ASSERT_EQ(r.gcInvocations, 0u);
    ASSERT_EQ(r.flashPrograms, 500u);

    const TimingModel &t = cfg.timing;
    const Tick service =
        t.ftlOverhead + (usesHashEngine(system) ? t.hashLatency : 0) +
        t.commandOverhead + t.pageTransfer + t.programLatency;
    EXPECT_DOUBLE_EQ(r.writeLatency.mean(), static_cast<double>(service));
    EXPECT_EQ(r.writeLatency.percentile(0.99), service);
}

TEST(ClosedFormLatency, IdleWriteOnBaseline)
{
    checkIdleWriteService(SystemKind::Baseline);
}

TEST(ClosedFormLatency, IdleWriteWithHashEngine)
{
    checkIdleWriteService(SystemKind::MqDvp);
    checkIdleWriteService(SystemKind::Dedup);
}

/**
 * Mean read latency of Poisson reads at per-die utilization @p rho,
 * against the Pollaczek-Khinchine mean.
 *
 * Eight channels of one die each, so no transfer waits on another
 * die; every page is mapped and nothing is written, so no GC runs.
 * A read that misses the controller cache holds its die for
 * S = command + tR + transfer and waits, on average,
 * rho * S / (2 (1 - rho)) behind earlier reads; a hit costs the
 * cache-hit time. Both add the FTL overhead. The check splits off
 * the hits the run counts and takes each die's utilization from the
 * reads it served.
 */
void
checkMd1Reads(double rho, std::uint64_t seed)
{
    SsdConfig cfg;
    cfg.geom = Geometry(8, 1, 1, 1, 16, 256);
    cfg.logicalPages = 28'000;
    cfg.prefillFraction = 1.0;
    cfg.queueDepth = 64;
    cfg.validate();
    const TimingModel &t = cfg.timing;
    const std::uint64_t dies = cfg.geom.totalDies();
    const double service = static_cast<double>(
        t.commandOverhead + t.readLatency + t.pageTransfer);

    // Aim the arrival rate at rho per die; under uniform reads an
    // LRU cache of C pages over N pages hits C / N of them.
    const double miss_share =
        1.0 - static_cast<double>(cfg.readCacheEntries) /
                  static_cast<double>(cfg.logicalPages);
    const double rate =
        rho * static_cast<double>(dies) / (service * miss_share);
    const std::uint64_t reads = 400'000;
    Xoshiro256 rng(seed);
    std::vector<TraceRecord> records;
    records.reserve(reads);
    double clock = 0.0;
    for (std::uint64_t i = 0; i < reads; ++i) {
        clock += -std::log1p(-rng.nextDouble()) / rate;
        TraceRecord rec;
        rec.arrival = static_cast<Tick>(clock);
        rec.op = OpType::Read;
        rec.lpn = rng.nextBounded(cfg.logicalPages);
        records.push_back(rec);
    }
    const double span = static_cast<double>(records.back().arrival -
                                            records.front().arrival);

    Ssd ssd(cfg);
    VectorSource src(std::move(records));
    ssd.run(src);
    const SimResult r = ssd.result();
    ASSERT_EQ(r.reads, reads);
    ASSERT_EQ(r.unmappedReads, 0u);
    ASSERT_EQ(r.readCache.hits + r.readCache.misses, reads);

    // A die's busy ticks count tR + transfer per read (the command
    // cycles precede the busy phase), and with one die per channel
    // nothing else.
    const Tick busy_per_read = t.readLatency + t.pageTransfer;
    double expected = static_cast<double>(r.readCache.hits) *
                      static_cast<double>(t.ftlOverhead + t.cacheHit);
    std::uint64_t flash_reads = 0;
    for (std::uint64_t d = 0; d < dies; ++d) {
        const auto busy = static_cast<Tick>(ssd.statRegistry().value(
            "nand." + dieTrackName(cfg.geom, d) + ".busy_ticks"));
        ASSERT_EQ(busy % busy_per_read, 0u);
        const double served = static_cast<double>(busy / busy_per_read);
        flash_reads += busy / busy_per_read;
        const double rho_d = served * service / span;
        EXPECT_NEAR(rho_d, rho, 0.1 * rho) << "die " << d;
        const double wait = rho_d * service / (2.0 * (1.0 - rho_d));
        expected += served * (static_cast<double>(t.ftlOverhead) +
                              service + wait);
    }
    ASSERT_EQ(flash_reads, r.readCache.misses);
    expected /= static_cast<double>(reads);
    EXPECT_NEAR(r.readLatency.mean(), expected, 0.01 * expected)
        << "rho " << rho;
}

TEST(ClosedFormLatency, Md1ReadsAtLowLoad)
{
    checkMd1Reads(0.15, 1);
}

TEST(ClosedFormLatency, Md1ReadsAtModerateLoad)
{
    checkMd1Reads(0.30, 2);
}

TEST(ClosedFormLatency, Md1ReadsAtHighLoad)
{
    checkMd1Reads(0.60, 3);
}

} // namespace
} // namespace zombie

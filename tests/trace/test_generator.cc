/**
 * @file
 * Tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "trace/generator.hh"

namespace zombie
{
namespace
{

WorkloadProfile
smallProfile(Workload w = Workload::Mail, std::uint64_t requests = 20000)
{
    return WorkloadProfile::preset(w, 1, requests, 99);
}

TEST(Generator, EmitsExactlyRequestedCount)
{
    SyntheticTraceGenerator gen(smallProfile());
    EXPECT_EQ(gen.generateAll().size(), 20000u);
}

TEST(Generator, NextReturnsFalseWhenExhausted)
{
    WorkloadProfile p = smallProfile();
    p.requests = 3;
    SyntheticTraceGenerator gen(p);
    TraceRecord rec;
    EXPECT_TRUE(gen.next(rec));
    EXPECT_TRUE(gen.next(rec));
    EXPECT_TRUE(gen.next(rec));
    EXPECT_FALSE(gen.next(rec));
    EXPECT_FALSE(gen.next(rec));
}

TEST(Generator, DeterministicForSameSeed)
{
    SyntheticTraceGenerator a(smallProfile());
    SyntheticTraceGenerator b(smallProfile());
    const auto ta = a.generateAll();
    const auto tb = b.generateAll();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].arrival, tb[i].arrival);
        EXPECT_EQ(ta[i].op, tb[i].op);
        EXPECT_EQ(ta[i].lpn, tb[i].lpn);
        EXPECT_EQ(ta[i].fp, tb[i].fp);
        EXPECT_EQ(ta[i].valueId, tb[i].valueId);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    WorkloadProfile p1 = smallProfile();
    WorkloadProfile p2 = smallProfile();
    p2.seed += 1;
    const auto t1 = SyntheticTraceGenerator(p1).generateAll();
    const auto t2 = SyntheticTraceGenerator(p2).generateAll();
    int diff = 0;
    for (std::size_t i = 0; i < t1.size(); ++i)
        diff += t1[i].lpn != t2[i].lpn || t1[i].op != t2[i].op;
    EXPECT_GT(diff, 1000);
}

TEST(Generator, FirstRecordIsAlwaysAWrite)
{
    for (Workload w : allWorkloads()) {
        WorkloadProfile p = smallProfile(w, 10);
        SyntheticTraceGenerator gen(p);
        TraceRecord rec;
        ASSERT_TRUE(gen.next(rec));
        EXPECT_TRUE(rec.isWrite()) << toString(w);
    }
}

TEST(Generator, ArrivalsAreStrictlyIncreasing)
{
    SyntheticTraceGenerator gen(smallProfile());
    TraceRecord rec;
    Tick prev = 0;
    while (gen.next(rec)) {
        ASSERT_GT(rec.arrival, prev);
        prev = rec.arrival;
    }
}

TEST(Generator, LpnsStayWithinTotalSpace)
{
    WorkloadProfile p = smallProfile();
    SyntheticTraceGenerator gen(p);
    TraceRecord rec;
    while (gen.next(rec)) {
        ASSERT_LT(rec.lpn, p.totalLpnSpace());
        if (rec.isWrite())
            ASSERT_GE(rec.lpn, p.coldReadPages());
    }
}

TEST(Generator, ColdReadsReturnStableUniqueContent)
{
    WorkloadProfile p = smallProfile();
    ASSERT_GT(p.coldReadPages(), 0u);
    SyntheticTraceGenerator gen(p);
    TraceRecord rec;
    std::uint64_t cold_reads = 0;
    while (gen.next(rec)) {
        if (rec.isRead() && rec.lpn < gen.footprintBase()) {
            ++cold_reads;
            ASSERT_EQ(rec.valueId,
                      SyntheticTraceGenerator::kColdValueBase + rec.lpn);
        }
    }
    EXPECT_GT(cold_reads, 0u);
}

TEST(Generator, WriteRatioMatchesProfile)
{
    for (Workload w : {Workload::Mail, Workload::Hadoop}) {
        WorkloadProfile p = smallProfile(w, 50000);
        SyntheticTraceGenerator gen(p);
        std::uint64_t writes = 0;
        TraceRecord rec;
        while (gen.next(rec))
            writes += rec.isWrite();
        EXPECT_NEAR(writes / 50000.0, p.writeRatio, 0.02)
            << toString(w);
    }
}

TEST(Generator, FingerprintDerivesFromValueId)
{
    WorkloadProfile p = smallProfile();
    SyntheticTraceGenerator gen(p);
    TraceRecord rec;
    while (gen.next(rec))
        ASSERT_EQ(rec.fp, Fingerprint::fromValueId(rec.valueId));
}

TEST(Generator, ReadsReturnCurrentContentOfLpn)
{
    // Replay the trace maintaining lpn -> last written value; every
    // warm read must carry exactly that value.
    SyntheticTraceGenerator gen(smallProfile());
    std::unordered_map<Lpn, std::uint64_t> shadow;
    TraceRecord rec;
    while (gen.next(rec)) {
        if (rec.isWrite()) {
            shadow[rec.lpn] = rec.valueId;
        } else if (rec.lpn >= gen.footprintBase()) {
            auto it = shadow.find(rec.lpn);
            ASSERT_NE(it, shadow.end());
            ASSERT_EQ(it->second, rec.valueId);
        }
    }
}

TEST(Generator, StatsAreInternallyConsistent)
{
    SyntheticTraceGenerator gen(smallProfile());
    const auto records = gen.generateAll();
    const GeneratorStats &s = gen.stats();
    EXPECT_EQ(s.reads + s.writes, records.size());
    EXPECT_EQ(s.newLpnWrites + s.updateWrites, s.writes);
    EXPECT_EQ(s.newLpnWrites, gen.lpnsUsed());
    EXPECT_LE(s.distinctPoolValuesWritten,
              gen.profile().popularPoolSize());
}

TEST(Generator, MailIsHighlyRedundant)
{
    // Table II: mail's unique-write-value fraction is 8%.
    SyntheticTraceGenerator gen(smallProfile(Workload::Mail, 60000));
    gen.generateAll();
    EXPECT_LT(gen.stats().uniqueWriteValueFraction(), 0.25);
}

TEST(Generator, TransIsMostlyUniqueContent)
{
    // Table II: trans's unique-write-value fraction is 77.4%.
    SyntheticTraceGenerator gen(smallProfile(Workload::Trans, 60000));
    gen.generateAll();
    EXPECT_GT(gen.stats().uniqueWriteValueFraction(), 0.6);
}

TEST(Generator, SameValueRewritesHappen)
{
    WorkloadProfile p = smallProfile();
    p.sameValueProb = 0.5;
    SyntheticTraceGenerator gen(p);
    gen.generateAll();
    EXPECT_GT(gen.stats().sameValueRewrites, 0u);
}

TEST(Generator, ContentAtTracksLastWrite)
{
    WorkloadProfile p = smallProfile();
    p.requests = 500;
    SyntheticTraceGenerator gen(p);
    TraceRecord rec;
    std::unordered_map<Lpn, std::uint64_t> shadow;
    while (gen.next(rec)) {
        if (rec.isWrite())
            shadow[rec.lpn] = rec.valueId;
    }
    for (const auto &[lpn, vid] : shadow)
        EXPECT_EQ(gen.contentAt(lpn), vid);
}

TEST(Generator, BurstsCompressInterarrivals)
{
    WorkloadProfile bursty = smallProfile();
    bursty.burstProb = 0.5;
    bursty.burstLength = 16;
    bursty.burstInterarrivalUs = 0.5;
    WorkloadProfile calm = smallProfile();
    calm.burstProb = 0.0;

    const auto tb = SyntheticTraceGenerator(bursty).generateAll();
    const auto tc = SyntheticTraceGenerator(calm).generateAll();
    EXPECT_LT(tb.back().arrival, tc.back().arrival);
}

} // namespace
} // namespace zombie

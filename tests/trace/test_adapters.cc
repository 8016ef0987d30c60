/**
 * @file
 * Tests for the external-trace adapter chain: 4KB splitting,
 * fingerprint synthesis, windowing/downsampling and streaming LBA
 * compaction (trace/adapters.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "temp_path.hh"
#include "trace/adapters.hh"
#include "util/types.hh"

namespace zombie
{
namespace
{

class TraceAdaptersTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("adapters.csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }

    void
    writeCsv(const std::string &content)
    {
        std::ofstream out(tempPath());
        out << content;
    }

    ExternalTraceConfig
    csvConfig()
    {
        ExternalTraceConfig cfg;
        cfg.path = tempPath();
        cfg.format = ExternalFormat::GenericCsv;
        return cfg;
    }

    ExternalTraceConfig
    msrConfig()
    {
        ExternalTraceConfig cfg;
        cfg.path = tempPath();
        cfg.format = ExternalFormat::MsrCsv;
        cfg.deviceTenants = true;
        return cfg;
    }
};

TEST(FingerprintSynthesis, DeterministicAndInjective)
{
    // Same (LBA, version) always yields the same fingerprint: the
    // synthesis is seedless and carries no hidden state, so replays
    // agree across runs, processes and --jobs settings.
    EXPECT_EQ(synthesizeFingerprint(7, 3), synthesizeFingerprint(7, 3));
    EXPECT_NE(synthesizeFingerprint(7, 3), synthesizeFingerprint(7, 4));
    EXPECT_NE(synthesizeFingerprint(7, 3), synthesizeFingerprint(8, 3));
    // The (version << 40) | lpn packing must not alias across the
    // field boundary: the largest LPN and the smallest non-zero
    // version sit in adjacent id bits.
    EXPECT_NE(synthesizeFingerprint((1ULL << 40) - 1, 0),
              synthesizeFingerprint(0, 1));
}

TEST(FingerprintSynthesis, PageDerivationKeepsPageZeroVerbatim)
{
    const Fingerprint native = Fingerprint::fromValueId(99);
    EXPECT_EQ(pageFingerprint(native, 0), native);
    EXPECT_NE(pageFingerprint(native, 1), native);
    EXPECT_NE(pageFingerprint(native, 1), pageFingerprint(native, 2));
    EXPECT_EQ(pageFingerprint(native, 1), pageFingerprint(native, 1));
}

TEST_F(TraceAdaptersTest, SplitsExtentsIntoAlignedPages)
{
    // 8KB at page 3 -> two records; 1 byte past a page boundary
    // still touches two pages.
    writeCsv("3,8192,W,0\n");
    auto src = makeExternalSourceFactory(csvConfig())();
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.lpn, 3u);
    EXPECT_TRUE(rec.isWrite());
    EXPECT_EQ(rec.valueId, TraceRecord::kNoValueId);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.lpn, 4u);
    EXPECT_FALSE(src->next(rec));
}

TEST_F(TraceAdaptersTest, SplitPagesShareArrivalDistinctContent)
{
    writeCsv("10,12288,W,500\n");
    auto src = makeExternalSourceFactory(csvConfig())();
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (src->next(rec))
        records.push_back(rec);
    ASSERT_EQ(records.size(), 3u);
    for (const auto &r : records)
        EXPECT_EQ(r.arrival, records[0].arrival);
    EXPECT_NE(records[0].fp, records[1].fp);
    EXPECT_NE(records[1].fp, records[2].fp);
}

TEST_F(TraceAdaptersTest, WritesBumpVersionsReadsObserveThem)
{
    writeCsv("5,4096,R,0\n"  // read before any write: version 0
             "5,4096,W,1\n"  // version 1
             "5,4096,R,2\n"  // sees version 1
             "5,4096,W,3\n"  // version 2
             "5,4096,R,4\n");
    auto src = makeExternalSourceFactory(csvConfig())();
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (src->next(rec))
        records.push_back(rec);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].fp, synthesizeFingerprint(5, 0));
    EXPECT_EQ(records[1].fp, synthesizeFingerprint(5, 1));
    EXPECT_EQ(records[2].fp, records[1].fp);
    EXPECT_EQ(records[3].fp, synthesizeFingerprint(5, 2));
    EXPECT_NE(records[3].fp, records[1].fp);
    EXPECT_EQ(records[4].fp, records[3].fp);
}

TEST_F(TraceAdaptersTest, VersionPeriodMakesContentRecur)
{
    // Period 2: versions cycle 1, 0, 1, ... so the third write of a
    // page carries the first write's exact content — the overwritten
    // value comes back, which is what gives the DVP zombies to
    // revive on hashless traces.
    writeCsv("5,4096,W,0\n"
             "5,4096,W,1\n"
             "5,4096,W,2\n"
             "5,4096,W,3\n");
    ExternalTraceConfig cfg = csvConfig();
    cfg.versionPeriod = 2;
    auto src = makeExternalSourceFactory(cfg)();
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (src->next(rec))
        records.push_back(rec);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_NE(records[0].fp, records[1].fp);
    EXPECT_EQ(records[2].fp, records[0].fp);
    EXPECT_EQ(records[3].fp, records[1].fp);
}

TEST_F(TraceAdaptersTest, WindowSkipsAndLimits)
{
    writeCsv("0,4096,W,0\n1,4096,W,1\n2,4096,W,2\n"
             "3,4096,W,3\n4,4096,W,4\n");
    ExternalTraceConfig cfg = csvConfig();
    cfg.skip = 1;
    cfg.limit = 2;
    auto src = makeExternalSourceFactory(cfg)();
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.lpn, 1u);
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.lpn, 2u);
    EXPECT_FALSE(src->next(rec));
}

TEST_F(TraceAdaptersTest, StrideDownsamples)
{
    writeCsv("0,4096,W,0\n1,4096,W,1\n2,4096,W,2\n"
             "3,4096,W,3\n4,4096,W,4\n");
    ExternalTraceConfig cfg = csvConfig();
    cfg.stride = 2;
    auto src = makeExternalSourceFactory(cfg)();
    std::vector<Lpn> lpns;
    TraceRecord rec;
    while (src->next(rec))
        lpns.push_back(rec.lpn);
    EXPECT_EQ(lpns, (std::vector<Lpn>{0, 2, 4}));
}

TEST_F(TraceAdaptersTest, CompactionRemapsFirstAppearanceOrder)
{
    writeCsv("900,4096,W,0\n"
             "100,4096,W,1\n"
             "900,4096,R,2\n"
             "500,4096,W,3\n");
    const ScannedTrace scan = scanExternalTrace(csvConfig());
    EXPECT_EQ(scan.records, 4u);
    EXPECT_EQ(scan.footprintPages, 3u);
    auto src = scan.factory();
    std::vector<Lpn> lpns;
    TraceRecord rec;
    while (src->next(rec))
        lpns.push_back(rec.lpn);
    EXPECT_EQ(lpns, (std::vector<Lpn>{0, 1, 0, 2}));
}

TEST_F(TraceAdaptersTest, NoCompactKeepsRawFootprint)
{
    writeCsv("900,4096,W,0\n100,4096,W,1\n");
    ExternalTraceConfig cfg = csvConfig();
    cfg.compact = false;
    const ScannedTrace scan = scanExternalTrace(cfg);
    EXPECT_EQ(scan.footprintPages, 901u);
    auto src = scan.factory();
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.lpn, 900u);
}

TEST_F(TraceAdaptersTest, ScanSummaryMatchesStream)
{
    writeCsv("1,4096,W,0\n1,4096,R,10\n2,8192,W,20\n");
    const ScannedTrace scan = scanExternalTrace(csvConfig());
    // The 8KB write splits: 4 records total, 3 writes.
    EXPECT_EQ(scan.records, 4u);
    EXPECT_EQ(scan.summary.total(), 4u);
    EXPECT_EQ(scan.summary.writes, 3u);
    EXPECT_EQ(scan.summary.reads, 1u);
    EXPECT_EQ(scan.summary.distinctLpns, 3u);
    EXPECT_EQ(scan.summary.lastArrival, 20u);
}

/** Every TraceSummary field of @p got equals @p want's. */
void
expectSameSummary(const TraceSummary &got, const TraceSummary &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.distinctWriteValues, want.distinctWriteValues);
    EXPECT_EQ(got.distinctReadValues, want.distinctReadValues);
    EXPECT_EQ(got.distinctLpns, want.distinctLpns);
    EXPECT_EQ(got.firstArrival, want.firstArrival);
    EXPECT_EQ(got.lastArrival, want.lastArrival);
}

TEST_F(TraceAdaptersTest, ScanSummaryEqualsSummaryOfEmittedRecords)
{
    // The scan's Table-II summary (distinct pages counted by the
    // compaction remap, or by the summarizer when the scan does not
    // compact) must equal summarizeTrace over what the factory
    // emits, field by field.
    const auto check = [](const ExternalTraceConfig &cfg) {
        const ScannedTrace scan = scanExternalTrace(cfg);
        auto src = scan.factory();
        const auto records = drainSource(*src);
        ASSERT_EQ(records.size(), scan.records);
        expectSameSummary(scan.summary, summarizeTrace(records));
    };

    // FIU with native MD5s: repeating content, multi-page extents,
    // a few hashless lines.
    std::string fiu;
    for (int i = 0; i < 300; ++i) {
        char md5[33];
        std::snprintf(md5, sizeof(md5), "%08x%08x%08x%08x", i % 37,
                      7 * (i % 37) + 1, 12345, 678);
        fiu += std::to_string(1000 + i * 30) + " 1000 proc " +
               std::to_string(((i * 7919) % 211) * 8) + " " +
               std::to_string(8 * (1 + i % 3)) +
               (i % 4 == 3 ? " R 8 0" : " W 8 0") +
               (i % 10 == 9 ? std::string() : " " + std::string(md5)) +
               "\n";
    }
    writeCsv(fiu);
    ExternalTraceConfig fiu_cfg = csvConfig();
    fiu_cfg.format = ExternalFormat::FiuBlkio;
    {
        SCOPED_TRACE("fiu");
        check(fiu_cfg);
    }

    // Generic CSV whose versions recur with period 3, compacted and
    // not.
    std::string csv = "lba,size,op,ts\n";
    for (int i = 0; i < 300; ++i)
        csv += std::to_string(900 + (i * 7919) % 97) + "," +
               (i % 5 == 0 ? "12288" : "4096") +
               (i % 4 == 3 ? ",R," : ",W,") + std::to_string(i * 3000) +
               "\n";
    writeCsv(csv);
    ExternalTraceConfig csv_cfg = csvConfig();
    csv_cfg.versionPeriod = 3;
    {
        SCOPED_TRACE("csv");
        check(csv_cfg);
    }
    csv_cfg.compact = false;
    {
        SCOPED_TRACE("csv --no-compact");
        check(csv_cfg);
    }

    // Three MSR devices routed onto tenant namespaces, each one
    // rewriting and rereading its pages.
    std::string msr;
    for (int i = 0; i < 300; ++i)
        msr += std::to_string(128166372003061629ULL + i * 100) +
               ",srv0," + std::to_string(i % 3 == 0 ? 4 : i % 3) +
               (i % 4 == 1 ? ",Read," : ",Write,") +
               std::to_string(((i * 7) % 23) * 4096) +
               (i % 6 == 5 ? ",8192,100\n" : ",4096,100\n");
    writeCsv(msr);
    {
        SCOPED_TRACE("msr --msr-disk-tenants");
        check(msrConfig());
    }
}

TEST_F(TraceAdaptersTest, SummaryOffStillCountsAndSizes)
{
    writeCsv("1,4096,W,0\n1,4096,R,10\n2,8192,W,20\n");
    ExternalTraceConfig cfg = csvConfig();
    cfg.summarize = false;
    const ScannedTrace scan = scanExternalTrace(cfg);
    EXPECT_EQ(scan.records, 4u);
    EXPECT_EQ(scan.summary.writes, 3u);
    EXPECT_EQ(scan.summary.reads, 1u);
    EXPECT_EQ(scan.summary.distinctLpns, 3u);
    EXPECT_EQ(scan.summary.lastArrival, 20u);
    EXPECT_EQ(scan.summary.distinctWriteValues, 0u); // skipped
}

TEST_F(TraceAdaptersTest, FactoryRebuildsIdenticalStreams)
{
    writeCsv("900,8192,W,0\n100,4096,R,1\n900,4096,W,2\n");
    const ScannedTrace scan = scanExternalTrace(csvConfig());
    auto a = scan.factory();
    auto b = scan.factory();
    const auto ra = drainSource(*a);
    const auto rb = drainSource(*b);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(ra.size(), scan.records);
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].arrival, rb[i].arrival);
        EXPECT_EQ(ra[i].op, rb[i].op);
        EXPECT_EQ(ra[i].lpn, rb[i].lpn);
        EXPECT_EQ(ra[i].fp, rb[i].fp);
    }
}

/** Device-to-tenant routing cases. */
class DeviceTenantsTest : public TraceAdaptersTest
{
  protected:
    /** "ts,host,disk,type,offset,size,rt" rows for three disks. */
    void
    writeThreeDiskMsr()
    {
        std::string text;
        for (int i = 0; i < 60; ++i) {
            const int disk = (i % 3 == 0) ? 4 : (i % 3); // 4,1,2,...
            text += std::to_string(128166372003061629ULL + i * 100) +
                    ",srv0," + std::to_string(disk) +
                    (i % 4 == 1 ? ",Read," : ",Write,") +
                    std::to_string(((i * 13) % 20) * 4096) +
                    ",4096,100\n";
        }
        writeCsv(text);
    }
};

TEST_F(DeviceTenantsTest, DevicesMapToDisjointNamespaces)
{
    writeThreeDiskMsr();
    const ScannedTrace scan = scanExternalTrace(msrConfig());
    ASSERT_EQ(scan.tenantPages.size(), 3u);

    // Namespace bases are the prefix sums of tenantPages; every
    // record of tenant t must fall inside [base[t], base[t] +
    // tenantPages[t]) and nowhere else — per-tenant record
    // disjointness down to the LPN ranges.
    std::vector<Lpn> base(scan.tenantPages.size(), 0);
    for (std::size_t t = 1; t < base.size(); ++t)
        base[t] = base[t - 1] + scan.tenantPages[t - 1];

    auto src = scan.factory();
    const auto records = drainSource(*src);
    ASSERT_EQ(records.size(), scan.records);
    std::vector<std::uint64_t> seen(scan.tenantPages.size(), 0);
    for (const auto &rec : records) {
        ASSERT_LT(rec.tenant, scan.tenantPages.size());
        EXPECT_GE(rec.lpn, base[rec.tenant]);
        EXPECT_LT(rec.lpn,
                  base[rec.tenant] + scan.tenantPages[rec.tenant]);
        ++seen[rec.tenant];
    }
    for (const std::uint64_t count : seen)
        EXPECT_GT(count, 0u); // all three devices produced records
    EXPECT_EQ(scan.footprintPages,
              base.back() + scan.tenantPages.back());
}

TEST_F(DeviceTenantsTest, TenantsGetFirstAppearanceIds)
{
    // Disk numbers 4, 1, 2 appear in that order; dense tenant ids
    // follow appearance, not the numeric disk id.
    writeThreeDiskMsr();
    const ScannedTrace scan = scanExternalTrace(msrConfig());
    auto src = scan.factory();
    TraceRecord rec;
    ASSERT_TRUE(src->next(rec)); // disk 4
    EXPECT_EQ(rec.tenant, 0u);
    ASSERT_TRUE(src->next(rec)); // disk 1
    EXPECT_EQ(rec.tenant, 1u);
    ASSERT_TRUE(src->next(rec)); // disk 2
    EXPECT_EQ(rec.tenant, 2u);
}

TEST_F(DeviceTenantsTest, PerTenantContentStaysDisjoint)
{
    // Two disks writing the same offsets with the same versions
    // must synthesize different content — tenant-salted ids.
    writeCsv("128166372003061629,srv0,0,Write,4096,4096,100\n"
             "128166372003061630,srv0,1,Write,4096,4096,100\n");
    const ScannedTrace scan = scanExternalTrace(msrConfig());
    auto src = scan.factory();
    TraceRecord a, b;
    ASSERT_TRUE(src->next(a));
    ASSERT_TRUE(src->next(b));
    EXPECT_NE(a.fp, b.fp);
    EXPECT_NE(a.lpn, b.lpn);
}

TEST_F(DeviceTenantsTest, SingleDeviceKeepsHistoricalStream)
{
    // One disk: routing on must be a no-op (tenant 0, no
    // tenantPages, identical records to routing off).
    writeCsv("128166372003061629,srv0,3,Write,8192,8192,100\n"
             "128166372003061729,srv0,3,Read,8192,4096,80\n");
    ExternalTraceConfig off = msrConfig();
    off.deviceTenants = false;
    const ScannedTrace with = scanExternalTrace(msrConfig());
    const ScannedTrace without = scanExternalTrace(off);
    EXPECT_TRUE(with.tenantPages.empty());
    auto sa = with.factory();
    auto sb = without.factory();
    const auto ra = drainSource(*sa);
    const auto rb = drainSource(*sb);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].lpn, rb[i].lpn);
        EXPECT_EQ(ra[i].fp, rb[i].fp);
        EXPECT_EQ(ra[i].tenant, rb[i].tenant);
    }
}

TEST_F(DeviceTenantsTest, RoutingWithoutCompactionIsFatal)
{
    writeCsv("128166372003061629,srv0,0,Write,8192,4096,100\n");
    ExternalTraceConfig cfg = msrConfig();
    cfg.compact = false;
    EXPECT_EXIT((void)scanExternalTrace(cfg),
                testing::ExitedWithCode(1), "compaction");
}

} // namespace
} // namespace zombie

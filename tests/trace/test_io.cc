/**
 * @file
 * Tests for trace serialization (text and binary formats).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_path.hh"
#include "trace/formats.hh"
#include "trace/generator.hh"
#include "trace/io.hh"

namespace zombie
{
namespace
{

class TraceIoTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("io.trc");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }

    std::vector<TraceRecord>
    sampleTrace(std::uint64_t n = 500)
    {
        WorkloadProfile p =
            WorkloadProfile::preset(Workload::Web, 1, n, 5);
        return SyntheticTraceGenerator(p).generateAll();
    }

    static void
    expectEqualTraces(const std::vector<TraceRecord> &a,
                      const std::vector<TraceRecord> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].arrival, b[i].arrival);
            EXPECT_EQ(a[i].op, b[i].op);
            EXPECT_EQ(a[i].lpn, b[i].lpn);
            EXPECT_EQ(a[i].fp, b[i].fp);
            EXPECT_EQ(a[i].valueId, b[i].valueId);
        }
    }
};

TEST_F(TraceIoTest, TextRoundTrip)
{
    const auto trace = sampleTrace();
    writeTraceFile(tempPath(), TraceFormat::Text, trace);
    TraceReader reader(tempPath());
    EXPECT_EQ(reader.format(), TraceFormat::Text);
    expectEqualTraces(trace, reader.readAll());
}

TEST_F(TraceIoTest, BinaryRoundTrip)
{
    const auto trace = sampleTrace();
    writeTraceFile(tempPath(), TraceFormat::Binary, trace);
    TraceReader reader(tempPath());
    EXPECT_EQ(reader.format(), TraceFormat::Binary);
    expectEqualTraces(trace, reader.readAll());
}

TEST_F(TraceIoTest, BinaryIsSmallerThanText)
{
    const auto trace = sampleTrace(2000);
    const std::string text_path = tempPath() + ".txt";
    writeTraceFile(text_path, TraceFormat::Text, trace);
    writeTraceFile(tempPath(), TraceFormat::Binary, trace);
    std::ifstream t(text_path, std::ios::ate | std::ios::binary);
    std::ifstream b(tempPath(), std::ios::ate | std::ios::binary);
    EXPECT_LT(b.tellg(), t.tellg());
    std::remove(text_path.c_str());
}

TEST_F(TraceIoTest, TextSkipsCommentsAndBlankLines)
{
    {
        std::ofstream out(tempPath());
        out << "# header comment\n\n";
        out << "100 W 5 " << Fingerprint::fromValueId(1).hex()
            << " 1\n";
        out << "# trailing comment\n";
        out << "200 R 5 " << Fingerprint::fromValueId(1).hex()
            << " -\n";
    }
    TraceReader reader(tempPath());
    const auto records = reader.readAll();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].isWrite());
    EXPECT_EQ(records[0].valueId, 1u);
    EXPECT_TRUE(records[1].isRead());
    EXPECT_EQ(records[1].valueId, TraceRecord::kNoValueId);
}

TEST_F(TraceIoTest, TextAcceptsLowercaseOps)
{
    {
        std::ofstream out(tempPath());
        out << "1 w 0 " << Fingerprint::fromValueId(9).hex() << " 9\n";
        out << "2 r 0 " << Fingerprint::fromValueId(9).hex() << " 9\n";
    }
    const auto records = TraceReader(tempPath()).readAll();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].isWrite());
    EXPECT_TRUE(records[1].isRead());
}

TEST_F(TraceIoTest, WriterCountsRecords)
{
    TraceWriter writer(tempPath(), TraceFormat::Binary);
    TraceRecord rec;
    rec.fp = Fingerprint::fromValueId(1);
    writer.write(rec);
    writer.write(rec);
    EXPECT_EQ(writer.recordsWritten(), 2u);
}

TEST_F(TraceIoTest, TenantRoundTripsInBothFormats)
{
    auto trace = sampleTrace(100);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].tenant = static_cast<std::uint16_t>(i % 3);
    for (const TraceFormat fmt :
         {TraceFormat::Text, TraceFormat::Binary}) {
        writeTraceFile(tempPath(), fmt, trace);
        const auto back = TraceReader(tempPath()).readAll();
        ASSERT_EQ(back.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            EXPECT_EQ(back[i].tenant, trace[i].tenant);
    }
}

TEST_F(TraceIoTest, TextWithoutTenantColumnReadsTenantZero)
{
    // Pre-multi-tenant trace files have no trailing tenant column;
    // they must keep parsing as tenant 0.
    {
        std::ofstream out(tempPath());
        out << "100 W 5 " << Fingerprint::fromValueId(1).hex()
            << " 1\n";
        out << "200 W 6 " << Fingerprint::fromValueId(2).hex()
            << " 2 3\n";
    }
    const auto records = TraceReader(tempPath()).readAll();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].tenant, 0u);
    EXPECT_EQ(records[1].tenant, 3u);
}

TEST_F(TraceIoTest, MalformedTextLineIsFatal)
{
    {
        std::ofstream out(tempPath());
        out << "not a trace line\n";
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec), testing::ExitedWithCode(1),
                "malformed");
}

TEST_F(TraceIoTest, BadOpCharacterIsFatal)
{
    {
        std::ofstream out(tempPath());
        out << "1 X 0 " << Fingerprint::fromValueId(1).hex() << " 1\n";
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec), testing::ExitedWithCode(1),
                "bad op");
}

TEST_F(TraceIoTest, BadValueIdIsFatalNotAnException)
{
    // std::stoull would throw here; the reader must diagnose the
    // file and line instead.
    {
        std::ofstream out(tempPath());
        out << "1 W 0 " << Fingerprint::fromValueId(1).hex()
            << " banana\n";
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec), testing::ExitedWithCode(1),
                "bad value id 'banana' at line 1");
}

TEST_F(TraceIoTest, ValueIdWithTrailingGarbageIsFatal)
{
    {
        std::ofstream out(tempPath());
        out << "1 W 0 " << Fingerprint::fromValueId(1).hex()
            << " 12x\n";
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec), testing::ExitedWithCode(1),
                "bad value id");
}

TEST_F(TraceIoTest, ShortFingerprintIsFatalWithLineNumber)
{
    {
        std::ofstream out(tempPath());
        out << "1 W 0 abc123 7\n";
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec), testing::ExitedWithCode(1),
                "bad fingerprint 'abc123' at line 1");
}

TEST_F(TraceIoTest, TruncatedBinaryIsFatal)
{
    writeTraceFile(tempPath(), TraceFormat::Binary, sampleTrace(4));
    // Chop off the last few bytes.
    std::ifstream in(tempPath(), std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::string data(size - 5, '\0');
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    in.close();
    {
        std::ofstream out(tempPath(), std::ios::binary);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
    }
    TraceReader reader(tempPath());
    TraceRecord rec;
    EXPECT_EXIT(
        {
            while (reader.next(rec)) {
            }
        },
        testing::ExitedWithCode(1), "truncated.*record 4");
}

// A record the simulator cannot replay ends in a fatal naming the
// file and the line (text) or record index (binary), in either form.

/** Read @p reader to the end; fatal records exit inside. */
void
readToEnd(TraceReader &reader)
{
    TraceRecord rec;
    while (reader.next(rec)) {
    }
}

/** A tenant-0 write of value 1 to page 0 at @p arrival. */
TraceRecord
plainWrite(Tick arrival)
{
    TraceRecord rec;
    rec.arrival = arrival;
    rec.op = OpType::Write;
    rec.lpn = 0;
    rec.fp = Fingerprint::fromValueId(1);
    return rec;
}

TEST_F(TraceIoTest, TextTenantPastCeilingIsFatal)
{
    {
        std::ofstream out(tempPath());
        const std::string fp = Fingerprint::fromValueId(1).hex();
        out << "1 W 0 " << fp << " 1\n";
        out << "2 W 0 " << fp << " 1 65537\n"; // not tenant 1
    }
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "tenant 65537 at line 2 in .*io\\.trc");
}

TEST_F(TraceIoTest, BinaryTenantPastCeilingIsFatal)
{
    TraceRecord second = plainWrite(0);
    second.tenant = kMaxTenants;
    writeTraceFile(tempPath(), TraceFormat::Binary,
                   {plainWrite(0), second});
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "tenant 16 at record 2 in .*io\\.trc");
}

TEST_F(TraceIoTest, TextArrivalBeforePreviousIsFatal)
{
    {
        std::ofstream out(tempPath());
        const std::string fp = Fingerprint::fromValueId(1).hex();
        out << "200 W 0 " << fp << " 1\n";
        out << "100 W 1 " << fp << " 1\n";
    }
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "arrival 100 at line 2 in .*io\\.trc precedes the "
                "previous record's 200");
}

TEST_F(TraceIoTest, BinaryArrivalBeforePreviousIsFatal)
{
    writeTraceFile(tempPath(), TraceFormat::Binary,
                   {plainWrite(200), plainWrite(100)});
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "arrival 100 at record 2 in .*io\\.trc precedes the "
                "previous record's 200");
}

TEST_F(TraceIoTest, TextLpnPast2To40IsFatal)
{
    {
        std::ofstream out(tempPath());
        out << "0 W 1099511627776 " << Fingerprint::fromValueId(1).hex()
            << " 1\n"; // page 2^40
    }
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "lpn 1099511627776 at line 1 in .*io\\.trc");
}

TEST_F(TraceIoTest, BinaryLpnPast2To40IsFatal)
{
    TraceRecord first = plainWrite(0);
    first.lpn = kMaxTracePages;
    writeTraceFile(tempPath(), TraceFormat::Binary, {first});
    TraceReader reader(tempPath());
    EXPECT_EXIT(readToEnd(reader), testing::ExitedWithCode(1),
                "lpn 1099511627776 at record 1 in .*io\\.trc");
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT({ TraceReader reader("/no/such/file.trc"); },
                testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace zombie

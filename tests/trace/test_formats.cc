/**
 * @file
 * Tests for the external block-trace parsers (FIU blkio, MSR CSV,
 * generic CSV) and the generic-CSV round-trip writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "temp_path.hh"
#include "trace/formats.hh"
#include "util/types.hh"

namespace zombie
{
namespace
{

class TraceFormatsTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("formats.trc");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }

    void
    writeFile(const std::string &content)
    {
        std::ofstream out(tempPath());
        out << content;
    }

    std::vector<RawIoRecord>
    drainRaw(RawTraceSource &src)
    {
        std::vector<RawIoRecord> records;
        RawIoRecord rec;
        while (src.next(rec))
            records.push_back(rec);
        return records;
    }
};

TEST_F(TraceFormatsTest, FormatNamesRoundTrip)
{
    for (const auto fmt :
         {ExternalFormat::Native, ExternalFormat::FiuBlkio,
          ExternalFormat::MsrCsv, ExternalFormat::GenericCsv})
        EXPECT_EQ(externalFormatFromString(toString(fmt)), fmt);
    EXPECT_EQ(externalFormatFromString("generic"),
              ExternalFormat::GenericCsv);
    EXPECT_EXIT((void)externalFormatFromString("tape"),
                testing::ExitedWithCode(1), "unknown trace format");
}

TEST_F(TraceFormatsTest, FiuBlkioParsesSectorsAndMd5)
{
    const std::string md5 = "0123456789abcdef0123456789abcdef";
    writeFile("1000 42 maild 16 8 W 8 0 " + md5 + "\n"
              "1020 42 maild 24 16 R 8 0\n");
    FiuBlkioSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].arrival, 0u); // first timestamp -> tick 0
    EXPECT_TRUE(records[0].write);
    EXPECT_EQ(records[0].offset, 16u * 512);
    EXPECT_EQ(records[0].length, 8u * 512);
    ASSERT_TRUE(records[0].hasFingerprint);
    EXPECT_EQ(records[0].fp, Fingerprint::fromHex(md5));
    // FILETIME: 20 ticks of 100ns each.
    EXPECT_EQ(records[1].arrival, 2000u);
    EXPECT_FALSE(records[1].write);
    EXPECT_FALSE(records[1].hasFingerprint);
}

TEST_F(TraceFormatsTest, FiuBlkioRejectsMalformedLines)
{
    struct Case
    {
        const char *line;
        const char *diagnostic;
    };
    const Case cases[] = {
        {"1000 42 maild 16 8\n", "expected 8 or 9 columns"},
        {"1000 42 maild 16 8 W 8 0 junk junk\n",
         "expected 8 or 9 columns"},
        {"1000 42 maild 16 8 Q 8 0\n", "bad op"},
        {"xyz 42 maild 16 8 W 8 0\n", "expected unsigned integer"},
        {"1000 42 maild 16 8 W 8 0 deadbeef\n",
         "md5 column is not 32 hex digits"},
        {"1000 42 maild 16 8 W 8 0 0123456789abcdef0123456789abcdeg\n",
         "md5 column is not 32 hex digits"},
    };
    for (const Case &c : cases) {
        writeFile(c.line);
        FiuBlkioSource src(tempPath());
        RawIoRecord rec;
        EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                    c.diagnostic)
            << c.line;
    }
}

/** Every RawIoRecord field of @p got equals @p want's. */
void
expectSameRaw(const RawIoRecord &got, const RawIoRecord &want)
{
    EXPECT_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.write, want.write);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.length, want.length);
    EXPECT_EQ(got.device, want.device);
    EXPECT_EQ(got.hasFingerprint, want.hasFingerprint);
    EXPECT_EQ(got.fp, want.fp);
}

TEST_F(TraceFormatsTest, FiuColumnsSplitOnCLocaleWhitespace)
{
    // Any run of C-locale whitespace separates two columns: ' ' and
    // '\t'..'\r' ('\n' ends the line, and a line-final '\r' is
    // stripped as CRLF, so here '\r' sits mid-line).
    const std::vector<std::vector<std::string>> lines = {
        {"1000", "42", "maild", "16", "8", "W", "8", "0",
         "0123456789abcdef0123456789abcdef"},
        {"1020", "42", "maild", "24", "16", "R", "8", "0"},
    };
    const auto render = [&](const std::string &sep) {
        std::string text;
        for (const auto &cols : lines) {
            for (std::size_t i = 0; i < cols.size(); ++i)
                text += (i ? sep : "") + cols[i];
            text += '\n';
        }
        return text;
    };
    writeFile(render(" "));
    FiuBlkioSource ref_src(tempPath());
    const auto want = drainRaw(ref_src);
    ASSERT_EQ(want.size(), 2u);

    for (const std::string sep :
         {"\t", "\v", "\f", "\r", "  ", " \t", "\t\v\f\r ",
          "\r\r\t"}) {
        writeFile(render(sep));
        FiuBlkioSource src(tempPath());
        const auto got = drainRaw(src);
        ASSERT_EQ(got.size(), want.size()) << testing::PrintToString(sep);
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(testing::PrintToString(sep));
            expectSameRaw(got[i], want[i]);
        }
    }
}

TEST_F(TraceFormatsTest, FiuNonCLocaleSpaceBytesStayInTheColumn)
{
    // Bytes that are not whitespace in the "C" locale, high bytes
    // included, are column bytes, so each glues two columns into one.
    for (const char byte : {'\x1c', '\x7f', '\x85', '\xa0'}) {
        writeFile(std::string("1000 42 maild 16") + byte +
                  "8 W 8 0\n");
        FiuBlkioSource src(tempPath());
        RawIoRecord rec;
        EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                    "expected 8 or 9 columns, got 7")
            << static_cast<int>(static_cast<unsigned char>(byte));
    }
}

// The pid, major and minor columns are unused but must parse as
// unsigned integers.

TEST_F(TraceFormatsTest, FiuMd5GluedToMinorColumnIsFatal)
{
    // 0xA0 is no C-locale space, so the MD5 joins the minor column
    // and the line has 8 columns.
    writeFile("1000 42 maild 16 8 W 8 0\xa0"
              "0123456789abcdef0123456789abcdef\n");
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(expected unsigned integer, got "
                "'0");
}

TEST_F(TraceFormatsTest, FiuNonNumericMajorMinorIsFatal)
{
    writeFile("1010 42 maild 16 8 W x y\n");
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(expected unsigned integer, got "
                "'x'");
}

// A hostile extent or timestamp ends in a fatal naming the file and
// line, never in a panic or a value that wrapped past 2^64.

TEST_F(TraceFormatsTest, CsvPagePast2To40IsFatal)
{
    writeFile("2199023255552,4096,W,0\n"); // 2^41 pages
    GenericCsvSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(extent reaches page 2199023255552");
}

TEST_F(TraceFormatsTest, CsvByteOffsetOverflowIsFatal)
{
    writeFile("4503599627370496,4096,W,0\n"); // 2^52 pages: 2^64 bytes
    GenericCsvSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(4503599627370496 \\* 4096 bytes "
                "overflows");
}

TEST_F(TraceFormatsTest, FiuByteOffsetOverflowIsFatal)
{
    writeFile("1000 42 maild 36028797018963968 8 W 8 0\n"); // 2^55
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(36028797018963968 \\* 512 bytes "
                "overflows");
}

TEST_F(TraceFormatsTest, FiuLengthOverflowIsFatal)
{
    writeFile("1000 42 maild 16 4611686018427387904 W 8 0\n"); // 2^62
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(4611686018427387904 \\* 512 bytes "
                "overflows");
}

TEST_F(TraceFormatsTest, MsrExtentEndOverflowIsFatal)
{
    // Offset and size fit; their sum wraps past 2^64.
    writeFile("128166372003061629,srv0,0,Write,9223372036854775808,"
              "9223372036854775808,100\n");
    MsrCsvSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:1 \\(extent end overflows");
}

TEST_F(TraceFormatsTest, TimestampOverflowIsFatal)
{
    // 184467440737095517 FILETIME ticks are just past 2^64 ns.
    writeFile("0 42 maild 16 8 W 8 0\n"
              "184467440737095517 42 maild 16 8 W 8 0\n");
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "formats\\.trc:2 \\(timestamp");
}

TEST_F(TraceFormatsTest, ExtentsBelowPage2To40Parse)
{
    // The last page below the bound, a zero-length request on it
    // and the largest tick delta that fits all parse.
    writeFile("0 42 maild 8796093022200 8 W 8 0\n"
              "184467440737095516 42 maild 8796093022207 0 R 8 0\n");
    FiuBlkioSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ((records[0].offset + records[0].length - 1) / kPageSize,
              kMaxTracePages - 1);
    EXPECT_EQ(records[1].offset / kPageSize, kMaxTracePages - 1);
    EXPECT_EQ(records[1].length, 0u);
    EXPECT_EQ(records[1].arrival, 18446744073709551600u);
}

TEST_F(TraceFormatsTest, FatalNamesFileAndLine)
{
    writeFile("# comment\n"
              "1000 42 maild 16 8 W 8 0\n"
              "garbage\n");
    FiuBlkioSource src(tempPath());
    RawIoRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                ":3 ");
}

TEST_F(TraceFormatsTest, MsrCsvParsesBytesAndSkipsHeader)
{
    writeFile("Timestamp,Hostname,DiskNumber,Type,Offset,Size,"
              "ResponseTime\n"
              "128166372003061629,srv0,0,Write,8192,4096,100\n"
              "128166372003061729,srv0,0,Read,16384,8192,80\n");
    MsrCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].write);
    EXPECT_EQ(records[0].offset, 8192u);
    EXPECT_EQ(records[0].length, 4096u);
    EXPECT_FALSE(records[0].hasFingerprint);
    EXPECT_EQ(records[1].arrival, 10000u); // 100 FILETIME ticks
    EXPECT_FALSE(records[1].write);
}

TEST_F(TraceFormatsTest, CrlfLinesParseIdenticallyToUnix)
{
    // MSR CSVs ship with Windows line endings; the reader must
    // strip the trailing \r instead of folding it into the last
    // column (which used to make ResponseTime unparseable).
    writeFile("Timestamp,Hostname,DiskNumber,Type,Offset,Size,"
              "ResponseTime\r\n"
              "128166372003061629,srv0,2,Write,8192,4096,100\r\n"
              "128166372003061729,srv0,2,Read,16384,8192,80\r\n");
    MsrCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].write);
    EXPECT_EQ(records[0].device, 2u);
    EXPECT_EQ(records[0].length, 4096u);
    EXPECT_EQ(records[1].arrival, 10000u);
}

TEST_F(TraceFormatsTest, CrlfGenericCsvAndMissingFinalNewline)
{
    writeFile("lba,size,op,ts\r\n"
              "7,4096,W,0\r\n"
              "9,8192,R,1500"); // no terminator on the last line
    GenericCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].offset, 7u * kPageSize);
    EXPECT_EQ(records[1].length, 8192u);
    EXPECT_EQ(records[1].arrival, 1500u);
}

TEST_F(TraceFormatsTest, MsrCsvCapturesDiskNumber)
{
    writeFile("128166372003061629,srv0,0,Write,8192,4096,100\n"
              "128166372003061630,srv0,5,Write,8192,4096,100\n"
              "128166372003061631,srv0,0,Read,8192,4096,100\n");
    MsrCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].device, 0u);
    EXPECT_EQ(records[1].device, 5u);
    EXPECT_EQ(records[2].device, 0u);
}

TEST_F(TraceFormatsTest, SingleDeviceFormatsReportDeviceZero)
{
    writeFile("7,4096,W,0\n");
    GenericCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].device, 0u);
}

TEST_F(TraceFormatsTest, MsrCsvRejectsWrongColumnCount)
{
    writeFile("128166372003061629,srv0,0,Write,8192\n");
    MsrCsvSource src(tempPath());
    RawIoRecord rec;
    EXPECT_EXIT((void)src.next(rec), testing::ExitedWithCode(1),
                "expected 7 columns");
}

TEST_F(TraceFormatsTest, GenericCsvParsesPagesAndSkipsHeader)
{
    writeFile("lba,size,op,ts\n"
              "# a comment\n"
              "7,4096,W,0\n"
              "9,8192,R,1500\n");
    GenericCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].offset, 7u * kPageSize);
    EXPECT_EQ(records[0].length, 4096u);
    EXPECT_TRUE(records[0].write);
    EXPECT_EQ(records[1].arrival, 1500u); // ts already in ns
    EXPECT_FALSE(records[1].write);
}

TEST_F(TraceFormatsTest, OutOfOrderTimestampsClampMonotone)
{
    writeFile("5,4096,W,1000\n"
              "6,4096,W,400\n" // reordered: earlier raw timestamp
              "7,4096,W,2000\n");
    GenericCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].arrival, 0u);
    EXPECT_EQ(records[1].arrival, 0u); // clamped, not negative
    EXPECT_EQ(records[2].arrival, 1000u);
}

TEST_F(TraceFormatsTest, GenericCsvWriterRoundTrips)
{
    {
        GenericCsvWriter writer(tempPath());
        TraceRecord rec;
        rec.arrival = 10;
        rec.op = OpType::Write;
        rec.lpn = 3;
        writer.write(rec);
        rec.arrival = 25;
        rec.op = OpType::Read;
        rec.lpn = 4;
        writer.write(rec);
        EXPECT_EQ(writer.recordsWritten(), 2u);
    }
    GenericCsvSource src(tempPath());
    const auto records = drainRaw(src);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].offset, 3u * kPageSize);
    EXPECT_EQ(records[0].length, kPageSize);
    EXPECT_TRUE(records[0].write);
    EXPECT_EQ(records[0].arrival, 0u);
    EXPECT_EQ(records[1].arrival, 15u); // normalized to first ts
    EXPECT_FALSE(records[1].write);
}

TEST(TraceFormatsDeath, MissingFileIsFatal)
{
    EXPECT_EXIT({ GenericCsvSource src("/no/such/file.csv"); },
                testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace zombie

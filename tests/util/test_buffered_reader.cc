/**
 * @file
 * Tests for the chunked byte-source stack (util/byte_source.hh) and
 * the zero-copy buffered line reader (util/buffered_reader.hh):
 * magic-byte sniffing, prefix replay, CRLF handling, block-boundary
 * refills, and transparent gzip decode from embedded containers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "temp_path.hh"
#include "util/buffered_reader.hh"
#include "util/byte_source.hh"

namespace zombie
{
namespace
{

/** gzip -n of "alpha\nbeta\r\ngamma" (one member, no trailer). */
const unsigned char kGzAlpha[] = {
    0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x4b, 0xcc, 0x29, 0xc8, 0x48, 0xe4, 0x4a, 0x4a, 0x2d, 0x49,
    0xe4, 0xe5, 0x4a, 0x4f, 0xcc, 0xcd, 0x4d, 0x04, 0x00, 0x4d,
    0x24, 0x10, 0x6f, 0x11, 0x00, 0x00, 0x00,
};

/** gzip -n of "one\n" immediately followed by gzip -n of "two\n" —
 *  a valid concatenated-member stream (gzip -c a b). */
const unsigned char kGzConcat[] = {
    0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0xcb, 0xcf, 0x4b, 0xe5, 0x02, 0x00, 0x9f, 0xa8, 0x17, 0xf8,
    0x04, 0x00, 0x00, 0x00, 0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x03, 0x2b, 0x29, 0xcf, 0xe7, 0x02, 0x00,
    0x74, 0x08, 0x17, 0x96, 0x04, 0x00, 0x00, 0x00,
};

std::string
bytes(const unsigned char *data, std::size_t size)
{
    return std::string(reinterpret_cast<const char *>(data), size);
}

std::string
drain(ByteSource &src)
{
    std::string out;
    char block[64];
    std::size_t n;
    while ((n = src.read(block, sizeof(block))) > 0)
        out.append(block, n);
    return out;
}

std::vector<std::string>
readLines(BufferedLineReader &reader)
{
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.nextLine(line))
        lines.emplace_back(line);
    return lines;
}

TEST(ByteSource, MemorySourceDrainsExactly)
{
    MemoryByteSource src("hello bytes", "label");
    EXPECT_EQ(src.describe(), "label");
    char buf[4];
    EXPECT_EQ(src.read(buf, 4), 4u);
    EXPECT_EQ(std::string(buf, 4), "hell");
    EXPECT_EQ(drain(src), "o bytes");
    EXPECT_EQ(src.read(buf, 4), 0u); // EOF is sticky
}

TEST(ByteSource, SniffRecognizesContainers)
{
    const unsigned char gz[] = {0x1f, 0x8b, 0x08, 0x00};
    const unsigned char zstd[] = {0x28, 0xb5, 0x2f, 0xfd};
    const unsigned char text[] = {'l', 'b', 'a', ','};
    EXPECT_EQ(sniffCompression(gz, 4), Compression::Gzip);
    EXPECT_EQ(sniffCompression(gz, 2), Compression::Gzip);
    EXPECT_EQ(sniffCompression(zstd, 4), Compression::Zstd);
    // A short prefix of a real container reads as plain bytes.
    EXPECT_EQ(sniffCompression(zstd, 3), Compression::None);
    EXPECT_EQ(sniffCompression(text, 4), Compression::None);
    EXPECT_EQ(sniffCompression(gz, 0), Compression::None);
}

TEST(ByteSource, PrependReplaysHeadThenInner)
{
    auto inner =
        std::make_unique<MemoryByteSource>(" tail", "inner");
    auto src = prependBytes("head", std::move(inner));
    EXPECT_EQ(drain(*src), "head tail");
    EXPECT_EQ(src->describe(), "inner");
}

TEST(ByteSourceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT({ FileByteSource src("/no/such/dir/f.bin"); },
                testing::ExitedWithCode(1), "cannot open file");
}

TEST(ByteSource, GzipDecodesEmbeddedContainer)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "built without zlib";
    auto src = makeDecompressor(
        Compression::Gzip,
        std::make_unique<MemoryByteSource>(
            bytes(kGzAlpha, sizeof(kGzAlpha))));
    EXPECT_EQ(drain(*src), "alpha\nbeta\r\ngamma");
}

TEST(ByteSource, GzipDecodesConcatenatedMembers)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "built without zlib";
    auto src = makeDecompressor(
        Compression::Gzip,
        std::make_unique<MemoryByteSource>(
            bytes(kGzConcat, sizeof(kGzConcat))));
    EXPECT_EQ(drain(*src), "one\ntwo\n");
}

TEST(ByteSourceDeath, TruncatedGzipIsFatal)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "built without zlib";
    EXPECT_EXIT(
        {
            auto src = makeDecompressor(
                Compression::Gzip,
                std::make_unique<MemoryByteSource>(
                    bytes(kGzAlpha, sizeof(kGzAlpha) / 2)));
            char buf[64];
            while (src->read(buf, sizeof(buf)) > 0) {
            }
        },
        testing::ExitedWithCode(1), "gzip");
}

TEST(ByteSourceDeath, MissingDecoderNamesTheRebuild)
{
    // Whichever decoder this build lacks must fail loudly, naming
    // the fix, instead of feeding compressed bytes to the parser.
    if (compressionSupported(Compression::Zstd))
        GTEST_SKIP() << "zstd decoder present in this build";
    EXPECT_EXIT((void)makeDecompressor(
                    Compression::Zstd,
                    std::make_unique<MemoryByteSource>("x")),
                testing::ExitedWithCode(1), "rebuild with");
}

TEST(ByteSource, OpenSniffsGzipFile)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "built without zlib";
    const std::string path = test::uniqueTempPath("bytesource.gz");
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes(kGzAlpha, sizeof(kGzAlpha));
    }
    auto src = openByteSource(path);
    EXPECT_EQ(drain(*src), "alpha\nbeta\r\ngamma");
    std::remove(path.c_str());
}

BufferedLineReader
readerOver(std::string text, std::size_t block)
{
    return BufferedLineReader(
        std::make_unique<MemoryByteSource>(std::move(text)), block);
}

TEST(BufferedLineReader, SplitsAndStripsTerminators)
{
    auto reader = readerOver("a\nbb\r\n\nccc", 64);
    const auto lines = readLines(reader);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[1], "bb"); // CRLF stripped, not just LF
    EXPECT_EQ(lines[2], "");
    EXPECT_EQ(lines[3], "ccc"); // final unterminated line emitted
}

TEST(BufferedLineReader, BareCarriageReturnSurvivesMidLine)
{
    // Only a *trailing* \r is a Windows terminator; an interior one
    // is payload.
    auto reader = readerOver("a\rb\n", 64);
    const auto lines = readLines(reader);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "a\rb");
}

TEST(BufferedLineReader, LineNumbersCountEveryLine)
{
    auto reader = readerOver("x\n\ny\n", 64);
    std::string_view line;
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(reader.lineNumber(), 1u);
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(reader.lineNumber(), 2u);
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(reader.lineNumber(), 3u);
    EXPECT_FALSE(reader.nextLine(line));
}

TEST(BufferedLineReader, TinyBlocksForceMidLineRefills)
{
    // Lines longer than the block exercise the slide-and-grow path;
    // a 4-byte block refills several times per line.
    std::string text;
    std::vector<std::string> expect;
    for (int i = 0; i < 50; ++i) {
        std::string line(static_cast<std::size_t>(1 + i % 17),
                         static_cast<char>('a' + i % 26));
        expect.push_back(line);
        text += line;
        text += (i % 3 == 0) ? "\r\n" : "\n";
    }
    auto reader = readerOver(text, 4);
    EXPECT_EQ(readLines(reader), expect);
}

TEST(BufferedLineReader, GrowsPastDefaultBlockLines)
{
    const std::string big(300'000, 'z'); // > kDefaultBlock
    auto reader = readerOver(big + "\nend\n",
                             BufferedLineReader::kDefaultBlock);
    std::string_view line;
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(line.size(), big.size());
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(line, "end");
    EXPECT_FALSE(reader.nextLine(line));
}

TEST(BufferedLineReader, GzipSourceReadsLines)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "built without zlib";
    BufferedLineReader reader(makeDecompressor(
        Compression::Gzip,
        std::make_unique<MemoryByteSource>(
            bytes(kGzAlpha, sizeof(kGzAlpha)))));
    const auto lines = readLines(reader);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "alpha");
    EXPECT_EQ(lines[1], "beta"); // \r\n inside the container
    EXPECT_EQ(lines[2], "gamma");
}

} // namespace
} // namespace zombie

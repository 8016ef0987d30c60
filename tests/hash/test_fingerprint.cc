/**
 * @file
 * Tests for the 16-byte fingerprint type.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "hash/fingerprint.hh"

namespace zombie
{
namespace
{

TEST(Fingerprint, DefaultIsZero)
{
    Fingerprint fp;
    EXPECT_EQ(fp.hex(), std::string(32, '0'));
    EXPECT_EQ(fp.word0(), 0u);
    EXPECT_EQ(fp.word1(), 0u);
}

TEST(Fingerprint, HexRoundTrip)
{
    const Fingerprint fp = Fingerprint::fromValueId(12345);
    EXPECT_EQ(Fingerprint::fromHex(fp.hex()), fp);
}

TEST(Fingerprint, FromHexAcceptsUpperCase)
{
    const std::string lower = "0123456789abcdef0123456789abcdef";
    std::string upper = "0123456789ABCDEF0123456789ABCDEF";
    EXPECT_EQ(Fingerprint::fromHex(lower), Fingerprint::fromHex(upper));
}

TEST(Fingerprint, ParseHexAcceptsExactlyTheHexDigits)
{
    const std::string valid = "0123456789abcdef0123456789ABCDEF";
    Fingerprint out;
    ASSERT_TRUE(Fingerprint::parseHex(valid, out));
    EXPECT_EQ(out, Fingerprint::fromHex(valid));
    EXPECT_FALSE(Fingerprint::parseHex(valid.substr(1), out));
    EXPECT_FALSE(Fingerprint::parseHex(valid + "0", out));

    // Every byte value, at the first and the last position.
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        const bool hex = (c >= '0' && c <= '9') ||
                         (c >= 'a' && c <= 'f') ||
                         (c >= 'A' && c <= 'F');
        for (const std::size_t pos : {std::size_t{0}, std::size_t{31}}) {
            std::string s = valid;
            s[pos] = c;
            EXPECT_EQ(Fingerprint::parseHex(s, out), hex) << b;
            if (hex)
                EXPECT_EQ(out, Fingerprint::fromHex(s)) << b;
        }
    }
}

TEST(Fingerprint, OrderingAndEquality)
{
    const Fingerprint a = Fingerprint::fromValueId(1);
    const Fingerprint b = Fingerprint::fromValueId(2);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, Fingerprint::fromValueId(1));
    EXPECT_TRUE((a < b) || (b < a));
}

TEST(Fingerprint, FromValueIdIsDeterministic)
{
    EXPECT_EQ(Fingerprint::fromValueId(777),
              Fingerprint::fromValueId(777));
}

TEST(Fingerprint, FromValueIdHasNoEasyCollisions)
{
    std::set<Fingerprint> seen;
    for (std::uint64_t id = 0; id < 100000; ++id)
        seen.insert(Fingerprint::fromValueId(id));
    EXPECT_EQ(seen.size(), 100000u);
}

TEST(Fingerprint, HashFunctorSpreadsAcrossBuckets)
{
    FingerprintHash hasher;
    std::unordered_set<std::size_t> buckets;
    for (std::uint64_t id = 0; id < 10000; ++id)
        buckets.insert(hasher(Fingerprint::fromValueId(id)) % 1024);
    // Uniform hashing should touch essentially every bucket.
    EXPECT_GT(buckets.size(), 1000u);
}

TEST(Fingerprint, WordsMatchByteLayout)
{
    Fingerprint fp;
    for (int i = 0; i < 16; ++i)
        fp.bytes[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(fp.word0(), 0x0706050403020100ULL);
    EXPECT_EQ(fp.word1(), 0x0f0e0d0c0b0a0908ULL);
}

TEST(FingerprintDeath, FromHexRejectsBadLength)
{
    EXPECT_EXIT((void)Fingerprint::fromHex("abcd"),
                testing::ExitedWithCode(1), "32 chars");
}

TEST(FingerprintDeath, FromHexRejectsBadCharacters)
{
    EXPECT_EXIT(
        (void)Fingerprint::fromHex("zz345678901234567890123456789012"),
        testing::ExitedWithCode(1), "bad hex");
}

} // namespace
} // namespace zombie

#include "hash/fingerprint.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/random.hh"

namespace zombie
{

namespace
{

/** Marks a non-hex byte in kNibble; any valid nibble is below 16. */
constexpr std::uint8_t kBadNibble = 0xff;

/** Nibble value of every byte, kBadNibble for non-hex bytes. */
constexpr std::array<std::uint8_t, 256> kNibble = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(kBadNibble);
    for (std::uint8_t i = 0; i < 10; ++i)
        table['0' + i] = i;
    for (std::uint8_t i = 0; i < 6; ++i) {
        table['a' + i] = static_cast<std::uint8_t>(10 + i);
        table['A' + i] = static_cast<std::uint8_t>(10 + i);
    }
    return table;
}();

std::uint8_t
nibble(char c)
{
    return kNibble[static_cast<unsigned char>(c)];
}

} // namespace

std::string
Fingerprint::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

bool
Fingerprint::parseHex(std::string_view hex, Fingerprint &out)
{
    if (hex.size() != 32)
        return false;
    // OR every nibble together: a bad byte sets the high bits, so
    // one test after the loop validates the whole string.
    std::uint8_t seen = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        const std::uint8_t hi = nibble(hex[2 * i]);
        const std::uint8_t lo = nibble(hex[2 * i + 1]);
        seen |= hi | lo;
        out.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
    }
    return seen < 16;
}

Fingerprint
Fingerprint::fromHex(std::string_view hex)
{
    if (hex.size() != 32)
        zombie_fatal("fingerprint hex must be 32 chars, got ", hex.size());
    Fingerprint fp;
    if (!parseHex(hex, fp)) {
        const char bad = *std::find_if(hex.begin(), hex.end(), [](char c) {
            return nibble(c) == kBadNibble;
        });
        zombie_fatal("bad hex character '", bad, "' in fingerprint");
    }
    return fp;
}

Fingerprint
Fingerprint::fromValueId(std::uint64_t value_id)
{
    SplitMix64 sm(value_id ^ 0xdeadbeefcafef00dULL);
    const std::uint64_t w0 = sm.next();
    const std::uint64_t w1 = sm.next();
    Fingerprint fp;
    std::memcpy(fp.bytes.data(), &w0, 8);
    std::memcpy(fp.bytes.data() + 8, &w1, 8);
    return fp;
}

} // namespace zombie

/**
 * @file
 * 16-byte content fingerprints.
 *
 * The FIU traces the paper analyzes carry a 16B hash (MD5) of each 4KB
 * request's content; the dead-value pool and the dedup engine both key
 * their lookups on this fingerprint. SHA-1 digests (the OSU traces) are
 * truncated to the same 16 bytes.
 */

#ifndef ZOMBIE_HASH_FINGERPRINT_HH
#define ZOMBIE_HASH_FINGERPRINT_HH

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace zombie
{

/** Immutable 128-bit content fingerprint. */
struct Fingerprint
{
    std::array<std::uint8_t, 16> bytes{};

    auto operator<=>(const Fingerprint &) const = default;

    /** First 8 bytes as a little-endian word, for hashing/bucketing. */
    std::uint64_t
    word0() const
    {
        std::uint64_t w;
        std::memcpy(&w, bytes.data(), sizeof(w));
        return w;
    }

    std::uint64_t
    word1() const
    {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + 8, sizeof(w));
        return w;
    }

    /** Lower-case hex rendering, e.g. for trace text format. */
    std::string hex() const;

    /** Parse 32 hex characters; fatal on malformed input. */
    static Fingerprint fromHex(std::string_view hex);

    /**
     * Validate and decode 32 hex characters (either case) in one
     * pass. @return false, leaving @p out unspecified, when @p hex
     * has another length or a non-hex character.
     */
    static bool parseHex(std::string_view hex, Fingerprint &out);

    /**
     * Deterministically expand a synthetic value id into a fingerprint.
     * The trace generator names content by dense ids; this mixes them
     * through SplitMix64 twice so fingerprints are uniformly spread,
     * exactly as a cryptographic digest of distinct contents would be.
     */
    static Fingerprint fromValueId(std::uint64_t value_id);
};

/** Hash functor for unordered containers. */
struct FingerprintHash
{
    std::size_t
    operator()(const Fingerprint &fp) const
    {
        // The fingerprint is already uniform; fold the two words.
        return static_cast<std::size_t>(fp.word0() ^
                                        (fp.word1() * 0x9e3779b97f4a7c15ULL));
    }
};

} // namespace zombie

#endif // ZOMBIE_HASH_FINGERPRINT_HH

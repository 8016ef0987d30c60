/**
 * @file
 * One trace record = one 4KB request, in the FIU trace tradition.
 *
 * The paper's traces carry, per request: an arrival timestamp, the
 * operation, the logical address, and a 16B hash of the 4KB content.
 * The synthetic generator additionally records the dense value id the
 * fingerprint was derived from, which the offline analyses use as a
 * cheap stand-in for the hash.
 */

#ifndef ZOMBIE_TRACE_RECORD_HH
#define ZOMBIE_TRACE_RECORD_HH

#include <cstdint>

#include "hash/fingerprint.hh"
#include "util/types.hh"

namespace zombie
{

/** Request direction. */
enum class OpType : std::uint8_t
{
    Read = 0,
    Write = 1,
};

/**
 * Ceiling on host-visible tenants (NVMe-style namespaces). Sixteen
 * keeps per-tenant value-id salts (tenant << 56) clear of the
 * generator's cold-read (0xC0..) and prefill (0xF0..) id regions.
 */
constexpr std::uint32_t kMaxTenants = 16;

/**
 * A single 4KB I/O request. The op and tenant share the word after
 * the arrival, which packs the record into 48 bytes: a materialized
 * 1M-request trace is 48 MB.
 */
struct TraceRecord
{
    /** Arrival time in ticks (ns) from trace start. */
    Tick arrival = 0;

    OpType op = OpType::Read;

    /** Submitting tenant (namespace index); 0 for single-tenant. */
    std::uint16_t tenant = 0;

    /** Logical page (4KB-aligned address / kPageSize). */
    Lpn lpn = kInvalidLpn;

    /** 16B content hash of the 4KB chunk. */
    Fingerprint fp{};

    /**
     * Dense content id for synthetic traces (kNoValueId when the
     * record came from an external trace file).
     */
    std::uint64_t valueId = kNoValueId;

    static constexpr std::uint64_t kNoValueId = ~0ULL;

    bool isWrite() const { return op == OpType::Write; }
    bool isRead() const { return op == OpType::Read; }
};

static_assert(sizeof(TraceRecord) == 48,
              "TraceRecord packs into 48 bytes");

} // namespace zombie

#endif // ZOMBIE_TRACE_RECORD_HH

/**
 * @file
 * Streaming parsers for public block-trace formats.
 *
 * The paper's evaluation runs on real content traces; public block
 * traces come in several flavors, so each parser lowers its format
 * into one raw shape — a byte-addressed extent with an arrival
 * timestamp, a direction, and (when the format carries one) a native
 * content fingerprint — and the adapters in trace/adapters.hh turn
 * that into the 4KB TraceRecord stream the simulator replays.
 *
 * Supported formats:
 *
 *  - FIU SRCMap blkio (the paper's own trace family): one record per
 *    line, "timestamp pid process lba size op major minor [md5]";
 *    any run of C-locale whitespace (' ', '\t'..'\r') separates two
 *    columns, and every other byte, 0x80 and above included, is a
 *    column byte. Timestamps are Windows FILETIME ticks (100ns),
 *    lba/size are in 512-byte sectors, and the md5 column is the
 *    native 16-byte fingerprint of the 4KB block.
 *  - MSR-Cambridge CSV: "Timestamp,Hostname,DiskNumber,Type,Offset,
 *    Size,ResponseTime"; FILETIME timestamps, byte offsets/sizes, no
 *    content hashes.
 *  - Generic CSV: "lba,size,op,ts" with lba a 4KB page index, size
 *    in bytes, op R|W, ts in nanoseconds; an optional header line
 *    and '#' comments are skipped. The simplest interchange format,
 *    and the one GenericCsvWriter emits for round-trip fixtures.
 *
 * Parsers are strictly streaming (one line of lookahead, bounded
 * memory) and strictly validating: a malformed line is a
 * zombie_fatal naming the file and line, never a garbage record.
 * That includes a line whose extent or timestamp does not fit the
 * simulator: a byte offset, length or extent end that overflows 64
 * bits, a last page at or past kMaxTracePages, or an arrival that
 * overflows 64-bit ns.
 */

#ifndef ZOMBIE_TRACE_FORMATS_HH
#define ZOMBIE_TRACE_FORMATS_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "hash/fingerprint.hh"
#include "trace/record.hh"
#include "util/buffered_reader.hh"

namespace zombie
{

/**
 * Bound on the pages an external extent may touch: every extent must
 * end below page 2^40. It is the range synthesizeFingerprint packs
 * into a content id, and it keeps the (tenant << 48) | lpn keys of
 * the adapters' version and remap tables disjoint across tenants.
 */
inline constexpr std::uint64_t kMaxTracePages = 1ULL << 40;

/** External block-trace formats with a streaming parser. */
enum class ExternalFormat
{
    Native,     //!< this repo's own text/binary format (trace/io.hh)
    FiuBlkio,   //!< FIU SRCMap blkio with native MD5 fingerprints
    MsrCsv,     //!< MSR-Cambridge block-trace CSV
    GenericCsv, //!< "lba,size,op,ts" interchange CSV
};

/** Parse "native" / "fiu" / "msr" / "csv"; fatal otherwise. */
ExternalFormat externalFormatFromString(const std::string &name);
std::string toString(ExternalFormat format);

/** One parsed request before 4KB lowering: a raw byte extent. */
struct RawIoRecord
{
    /** Arrival in ns, already normalized to the trace start. */
    Tick arrival = 0;

    bool write = false;

    /** Byte extent on the device (need not be 4KB aligned). */
    std::uint64_t offset = 0;
    std::uint64_t length = 0;

    /** Source device (MSR DiskNumber); 0 for single-device formats.
     *  --msr-disk-tenants routes devices onto tenant namespaces. */
    std::uint32_t device = 0;

    /** Native content fingerprint, when the format carries one. */
    bool hasFingerprint = false;
    Fingerprint fp{};
};

/** Pull interface over a raw (pre-lowering) request stream. */
class RawTraceSource
{
  public:
    virtual ~RawTraceSource() = default;

    /** @return false at end of stream; fatal on malformed input. */
    virtual bool next(RawIoRecord &out) = 0;
};

/**
 * Shared line-oriented plumbing: open-or-fatal (with transparent
 * gzip/zstd input via util/byte_source), zero-copy buffered line
 * reading, line counting, and the timestamp normalization every
 * wall-clock format needs (first timestamp maps to 0; real traces
 * carry small reorderings, so later arrivals clamp to nondecreasing
 * — the submit() contract). CRLF line endings are stripped by the
 * reader, so Windows-produced CSVs parse exactly like Unix ones.
 */
class LineTraceSource : public RawTraceSource
{
  public:
    bool next(RawIoRecord &out) override;

  protected:
    LineTraceSource(const std::string &path, const char *format_name);

    /**
     * Parse one non-empty, non-comment line into @p out, with
     * arrival still in raw trace units. The view aliases the read
     * buffer and dies with the next line. Implementations call
     * fail() (fatal) on any malformed field.
     */
    virtual void parseLine(std::string_view line,
                           RawIoRecord &out) = 0;

    /** Raw-timestamp unit in ns (100 for FILETIME formats). */
    virtual Tick arrivalUnitNs() const = 0;

    /** Whether @p line is a header/comment to skip (first line). */
    virtual bool isHeader(std::string_view line) const;

    /** Fatal parse error naming the file and 1-based line. */
    [[noreturn]] void fail(const std::string &what,
                           std::string_view line) const;

    /** Parse helpers; fatal via fail() on malformed fields. */
    std::uint64_t parseUint(std::string_view field,
                            std::string_view line) const;

    /** @p count units of @p unit bytes; fatal when that overflows. */
    std::uint64_t toBytes(std::uint64_t count, std::uint64_t unit,
                          std::string_view line) const;

    const std::string &path() const { return path_; }
    std::uint64_t lineNumber() const { return reader.lineNumber(); }

  private:
    BufferedLineReader reader;
    std::string path_;
    const char *fmtName;

    /** Fatal unless @p rec's extent ends below kMaxTracePages. */
    void checkExtent(const RawIoRecord &rec,
                     std::string_view line) const;

    /** Raw-unit timestamp of the first record (normalization base). */
    bool sawFirst = false;
    std::uint64_t firstRaw = 0;

    /** Last normalized arrival emitted (monotonicity clamp). */
    Tick lastArrival = 0;

    /** Raw timestamp of the line just parsed (set by parseLine). */
  protected:
    std::uint64_t rawTimestamp = 0;
};

/** FIU SRCMap blkio parser (native MD5 fingerprints). */
class FiuBlkioSource : public LineTraceSource
{
  public:
    explicit FiuBlkioSource(const std::string &path);

  protected:
    void parseLine(std::string_view line, RawIoRecord &out) override;
    Tick arrivalUnitNs() const override { return 100; }
};

/** MSR-Cambridge CSV parser (no content hashes). */
class MsrCsvSource : public LineTraceSource
{
  public:
    explicit MsrCsvSource(const std::string &path);

  protected:
    void parseLine(std::string_view line, RawIoRecord &out) override;
    Tick arrivalUnitNs() const override { return 100; }
    bool isHeader(std::string_view line) const override;
};

/** Generic "lba,size,op,ts" CSV parser. */
class GenericCsvSource : public LineTraceSource
{
  public:
    explicit GenericCsvSource(const std::string &path);

  protected:
    void parseLine(std::string_view line, RawIoRecord &out) override;
    Tick arrivalUnitNs() const override { return 1; }
    bool isHeader(std::string_view line) const override;
};

/**
 * Round-trip writer for the generic CSV format: one "lba,size,op,ts"
 * line per 4KB record, so tests and scripts can emit fixture traces
 * from the synthetic generator and re-ingest them through
 * GenericCsvSource. Content hashes are not representable in this
 * format — re-ingest synthesizes fingerprints from (LBA, version) —
 * so a round trip preserves the request stream, not the content
 * stream.
 */
class GenericCsvWriter
{
  public:
    explicit GenericCsvWriter(const std::string &path);
    ~GenericCsvWriter();

    void write(const TraceRecord &rec);
    void close();

    std::uint64_t recordsWritten() const { return count; }

  private:
    std::ofstream out;
    std::uint64_t count = 0;
};

} // namespace zombie

#endif // ZOMBIE_TRACE_FORMATS_HH

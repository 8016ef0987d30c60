#include "trace/formats.hh"

#include <algorithm>
#include <charconv>

#include "util/logging.hh"
#include "util/types.hh"

namespace zombie
{

namespace
{

/**
 * std::isspace in the "C" locale: ' ' and '\t'..'\r'. The byte is
 * compared as unsigned char, so bytes >= 0x80 stay token bytes, as
 * they are under isspace; nothing in the simulator calls setlocale.
 */
constexpr bool
isCSpace(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return u == ' ' || (u >= '\t' && u <= '\r');
}

/**
 * Split @p line on @p sep (the space separator also folds runs of
 * C-locale whitespace, matching the blkio column convention) into at
 * most @p max fields. @return the field count, which may exceed
 * @p max by one to signal trailing garbage.
 */
std::size_t
splitFields(std::string_view line, char sep, std::string_view *out,
            std::size_t max)
{
    const char *p = line.data();
    const char *end = p + line.size();
    std::size_t n = 0;
    while (p < end) {
        if (sep == ' ') {
            while (p < end && isCSpace(*p))
                ++p;
            if (p == end)
                break;
        }
        const char *start = p;
        if (sep == ' ') {
            while (p < end && !isCSpace(*p))
                ++p;
        } else {
            while (p < end && *p != sep)
                ++p;
        }
        if (n < max)
            out[n] = std::string_view(start,
                                      static_cast<std::size_t>(
                                          p - start));
        if (++n > max)
            return n;
        if (sep != ' ' && p < end)
            ++p; // skip the separator; empty trailing field is fine
    }
    return n;
}

} // namespace

ExternalFormat
externalFormatFromString(const std::string &name)
{
    if (name == "native")
        return ExternalFormat::Native;
    if (name == "fiu")
        return ExternalFormat::FiuBlkio;
    if (name == "msr")
        return ExternalFormat::MsrCsv;
    if (name == "csv" || name == "generic")
        return ExternalFormat::GenericCsv;
    zombie_fatal("unknown trace format '", name,
                 "' (native|fiu|msr|csv)");
}

std::string
toString(ExternalFormat format)
{
    switch (format) {
      case ExternalFormat::Native:
        return "native";
      case ExternalFormat::FiuBlkio:
        return "fiu";
      case ExternalFormat::MsrCsv:
        return "msr";
      case ExternalFormat::GenericCsv:
        return "csv";
    }
    zombie_panic("unreachable format");
}

LineTraceSource::LineTraceSource(const std::string &path,
                                 const char *format_name)
    : reader(openByteSource(path)), path_(path), fmtName(format_name)
{
}

void
LineTraceSource::fail(const std::string &what,
                      std::string_view line) const
{
    zombie_fatal("malformed ", fmtName, " record at ", path_, ":",
                 lineNumber(), " (", what, "): '", std::string(line),
                 "'");
}

std::uint64_t
LineTraceSource::parseUint(std::string_view field,
                           std::string_view line) const
{
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || ptr != field.data() + field.size())
        fail("expected unsigned integer, got '" +
                 std::string(field) + "'",
             line);
    return value;
}

std::uint64_t
LineTraceSource::toBytes(std::uint64_t count, std::uint64_t unit,
                         std::string_view line) const
{
    std::uint64_t bytes = 0;
    if (__builtin_mul_overflow(count, unit, &bytes))
        fail(std::to_string(count) + " * " + std::to_string(unit) +
                 " bytes overflows 64 bits",
             line);
    return bytes;
}

void
LineTraceSource::checkExtent(const RawIoRecord &rec,
                             std::string_view line) const
{
    std::uint64_t end = 0;
    if (__builtin_add_overflow(rec.offset, rec.length, &end))
        fail("extent end overflows 64 bits", line);
    // A zero-length request still touches the page at its offset.
    const std::uint64_t last_page =
        (rec.length ? end - 1 : end) / kPageSize;
    if (last_page >= kMaxTracePages)
        fail("extent reaches page " + std::to_string(last_page) +
                 ", past the 2^40-page range",
             line);
}

bool
LineTraceSource::isHeader(std::string_view) const
{
    return false;
}

bool
LineTraceSource::next(RawIoRecord &out)
{
    std::string_view text;
    while (reader.nextLine(text)) {
        if (text.empty() || text[0] == '#')
            continue;
        if (!sawFirst && isHeader(text))
            continue;
        out = RawIoRecord{};
        parseLine(text, out);
        checkExtent(out, text);

        // Normalize: the first record's wall-clock timestamp maps to
        // tick 0, and small reorderings (real traces carry them)
        // clamp to nondecreasing — the host-queue submit contract.
        if (!sawFirst) {
            sawFirst = true;
            firstRaw = rawTimestamp;
        }
        const std::uint64_t delta =
            rawTimestamp > firstRaw ? rawTimestamp - firstRaw : 0;
        Tick arrival = 0;
        if (__builtin_mul_overflow(delta, arrivalUnitNs(), &arrival))
            fail("timestamp is more than 2^64 ns past the first", text);
        arrival = std::max(arrival, lastArrival);
        lastArrival = arrival;
        out.arrival = arrival;
        return true;
    }
    return false;
}

FiuBlkioSource::FiuBlkioSource(const std::string &path)
    : LineTraceSource(path, "fiu-blkio")
{
}

void
FiuBlkioSource::parseLine(std::string_view line, RawIoRecord &out)
{
    // "timestamp pid process lba size op major minor [md5]" —
    // FILETIME ticks, 512-byte sectors, one MD5 per 4KB block.
    std::string_view f[9];
    const std::size_t n = splitFields(line, ' ', f, 9);
    if (n != 8 && n != 9)
        fail("expected 8 or 9 columns, got " + std::to_string(n),
             line);
    rawTimestamp = parseUint(f[0], line);
    // pid, major and minor are unused, but a line whose numeric
    // columns do not parse is malformed (a non-space byte can glue
    // the MD5 to the minor column).
    parseUint(f[1], line);
    const std::uint64_t lba = parseUint(f[3], line);
    const std::uint64_t sectors = parseUint(f[4], line);
    if (f[5].size() != 1)
        fail("bad op column '" + std::string(f[5]) + "'", line);
    switch (f[5][0]) {
      case 'W':
      case 'w':
        out.write = true;
        break;
      case 'R':
      case 'r':
        out.write = false;
        break;
      default:
        fail("bad op '" + std::string(f[5]) + "'", line);
    }
    parseUint(f[6], line);
    parseUint(f[7], line);
    out.offset = toBytes(lba, 512, line);
    out.length = toBytes(sectors, 512, line);
    if (n == 9) {
        if (!Fingerprint::parseHex(f[8], out.fp))
            fail("md5 column is not 32 hex digits", line);
        out.hasFingerprint = true;
    }
}

MsrCsvSource::MsrCsvSource(const std::string &path)
    : LineTraceSource(path, "msr-csv")
{
}

bool
MsrCsvSource::isHeader(std::string_view line) const
{
    // The distributed CSVs often lead with a column-name row.
    return line.rfind("Timestamp", 0) == 0 ||
           line.rfind("timestamp", 0) == 0;
}

void
MsrCsvSource::parseLine(std::string_view line, RawIoRecord &out)
{
    // "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
    // — FILETIME ticks and byte offsets/sizes; no content hashes.
    std::string_view f[7];
    const std::size_t n = splitFields(line, ',', f, 7);
    if (n != 7)
        fail("expected 7 columns, got " + std::to_string(n), line);
    rawTimestamp = parseUint(f[0], line);
    out.device = static_cast<std::uint32_t>(parseUint(f[2], line));
    if (f[3].empty())
        fail("empty Type column", line);
    switch (f[3][0]) {
      case 'W':
      case 'w':
        out.write = true;
        break;
      case 'R':
      case 'r':
        out.write = false;
        break;
      default:
        fail("bad Type '" + std::string(f[3]) + "'", line);
    }
    out.offset = parseUint(f[4], line);
    out.length = parseUint(f[5], line);
    out.hasFingerprint = false;
}

GenericCsvSource::GenericCsvSource(const std::string &path)
    : LineTraceSource(path, "generic-csv")
{
}

bool
GenericCsvSource::isHeader(std::string_view line) const
{
    return line.rfind("lba", 0) == 0;
}

void
GenericCsvSource::parseLine(std::string_view line, RawIoRecord &out)
{
    // "lba,size,op,ts" — lba in 4KB pages, size in bytes, ts in ns.
    std::string_view f[4];
    const std::size_t n = splitFields(line, ',', f, 4);
    if (n != 4)
        fail("expected 4 columns, got " + std::to_string(n), line);
    const std::uint64_t lba = parseUint(f[0], line);
    out.length = parseUint(f[1], line);
    if (f[2].size() != 1)
        fail("bad op column '" + std::string(f[2]) + "'", line);
    switch (f[2][0]) {
      case 'W':
      case 'w':
        out.write = true;
        break;
      case 'R':
      case 'r':
        out.write = false;
        break;
      default:
        fail("bad op '" + std::string(f[2]) + "'", line);
    }
    rawTimestamp = parseUint(f[3], line);
    out.offset = toBytes(lba, kPageSize, line);
    out.hasFingerprint = false;
}

GenericCsvWriter::GenericCsvWriter(const std::string &path)
    : out(path)
{
    if (!out)
        zombie_fatal("cannot open CSV trace for writing: ", path);
    out << "lba,size,op,ts\n";
}

GenericCsvWriter::~GenericCsvWriter()
{
    close();
}

void
GenericCsvWriter::write(const TraceRecord &rec)
{
    out << rec.lpn << ",4096," << (rec.isWrite() ? 'W' : 'R') << ','
        << rec.arrival << '\n';
    ++count;
}

void
GenericCsvWriter::close()
{
    if (out.is_open())
        out.close();
}

} // namespace zombie

#include "trace/io.hh"

#include <cctype>
#include <charconv>
#include <cstring>

#include "trace/formats.hh"
#include "util/logging.hh"

namespace zombie
{

namespace
{

constexpr char kBinaryMagic[8] = {'Z', 'O', 'M', 'B', 'T', 'R', 'C', '1'};

/**
 * Fixed-width on-disk record for the binary format. The tenant id
 * occupies two little-endian bytes of what used to be padding, so
 * pre-tenant traces (zeroed pad) read back as tenant 0.
 */
struct PackedRecord
{
    std::uint64_t arrival;
    std::uint64_t lpn;
    std::uint64_t value_id;
    std::uint8_t op;
    std::uint8_t fp[16];
    std::uint8_t tenant_lo;
    std::uint8_t tenant_hi;
    std::uint8_t pad[5];
};
static_assert(sizeof(PackedRecord) == 48, "packed record layout drifted");

} // namespace

TraceWriter::TraceWriter(const std::string &path, TraceFormat format)
    : out(path, format == TraceFormat::Binary
                    ? std::ios::binary | std::ios::out
                    : std::ios::out),
      fmt(format)
{
    if (!out)
        zombie_fatal("cannot open trace file for writing: ", path);
    if (fmt == TraceFormat::Binary)
        out.write(kBinaryMagic, sizeof(kBinaryMagic));
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::write(const TraceRecord &rec)
{
    if (fmt == TraceFormat::Text) {
        out << rec.arrival << ' '
            << (rec.isWrite() ? 'W' : 'R') << ' '
            << rec.lpn << ' '
            << rec.fp.hex() << ' ';
        if (rec.valueId == TraceRecord::kNoValueId)
            out << '-';
        else
            out << rec.valueId;
        // Trailing tenant column only when non-default, so
        // single-tenant text traces keep their historical bytes.
        if (rec.tenant != 0)
            out << ' ' << rec.tenant;
        out << '\n';
    } else {
        PackedRecord packed{};
        packed.arrival = rec.arrival;
        packed.lpn = rec.lpn;
        packed.value_id = rec.valueId;
        packed.op = static_cast<std::uint8_t>(rec.op);
        std::memcpy(packed.fp, rec.fp.bytes.data(), 16);
        packed.tenant_lo = static_cast<std::uint8_t>(rec.tenant);
        packed.tenant_hi = static_cast<std::uint8_t>(rec.tenant >> 8);
        out.write(reinterpret_cast<const char *>(&packed), sizeof(packed));
    }
    ++count;
}

void
TraceWriter::close()
{
    if (out.is_open())
        out.close();
}

TraceReader::TraceReader(const std::string &path)
    : path_(path), fmt(TraceFormat::Text)
{
    auto src = openByteSource(path);

    // Sniff the native binary magic on the (decompressed) stream.
    char magic[sizeof(kBinaryMagic)] = {};
    std::size_t got = 0;
    while (got < sizeof(magic)) {
        const std::size_t n =
            src->read(magic + got, sizeof(magic) - got);
        if (n == 0)
            break;
        got += n;
    }
    if (got == sizeof(magic) &&
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0) {
        fmt = TraceFormat::Binary;
        bin = std::move(src);
        buf.resize(BufferedLineReader::kDefaultBlock);
    } else {
        // Not binary: hand the sniffed bytes back, parse as text.
        fmt = TraceFormat::Text;
        lines = std::make_unique<BufferedLineReader>(
            prependBytes(std::string(magic, got), std::move(src)));
    }
}

std::size_t
TraceReader::binAvail(std::size_t need)
{
    while (limit - pos < need) {
        if (pos > 0) {
            std::memmove(buf.data(), buf.data() + pos, limit - pos);
            limit -= pos;
            pos = 0;
        }
        const std::size_t n =
            bin->read(buf.data() + limit, buf.size() - limit);
        if (n == 0)
            break;
        limit += n;
    }
    return limit - pos;
}

namespace
{

/** Advance past spaces; then past the field. @return the field. */
std::string_view
takeField(std::string_view text, std::size_t &cursor)
{
    while (cursor < text.size() && text[cursor] == ' ')
        ++cursor;
    const std::size_t start = cursor;
    while (cursor < text.size() && text[cursor] != ' ')
        ++cursor;
    return text.substr(start, cursor - start);
}

} // namespace

bool
TraceReader::next(TraceRecord &out)
{
    if (fmt == TraceFormat::Binary) {
        const std::size_t have = binAvail(sizeof(PackedRecord));
        if (have == 0)
            return false;
        ++line; // binary: `line` counts records, not text lines
        if (have < sizeof(PackedRecord))
            zombie_fatal("truncated binary trace ", path_, ": record ",
                         line, " has ", have, " of ",
                         sizeof(PackedRecord), " bytes");
        PackedRecord packed;
        std::memcpy(&packed, buf.data() + pos, sizeof(packed));
        pos += sizeof(packed);
        out.arrival = packed.arrival;
        out.lpn = packed.lpn;
        out.valueId = packed.value_id;
        if (packed.op > 1)
            zombie_fatal("corrupt op byte ",
                         static_cast<unsigned>(packed.op),
                         " at record ", line, " in binary trace ",
                         path_);
        out.op = static_cast<OpType>(packed.op);
        std::memcpy(out.fp.bytes.data(), packed.fp, 16);
        out.tenant = static_cast<std::uint16_t>(
            packed.tenant_lo | (packed.tenant_hi << 8));
        checkRecord(out, out.tenant);
        return true;
    }

    std::string_view text;
    while (lines->nextLine(text)) {
        line = lines->lineNumber();
        if (text.empty() || text[0] == '#')
            continue;
        const auto bad = [&](const char *what, std::string_view tok) {
            zombie_fatal("bad ", what, " '", std::string(tok),
                         "' at line ", line, " in ", path_);
        };
        const auto parse_u64 = [&](std::string_view tok,
                                   const char *what) {
            std::uint64_t value = 0;
            const char *end = tok.data() + tok.size();
            const auto [ptr, ec] =
                std::from_chars(tok.data(), end, value);
            if (ec != std::errc{} || ptr != end)
                bad(what, tok);
            return value;
        };

        std::size_t cursor = 0;
        const std::string_view ts = takeField(text, cursor);
        const std::string_view op_tok = takeField(text, cursor);
        const std::string_view lpn_tok = takeField(text, cursor);
        const std::string_view fp_hex = takeField(text, cursor);
        const std::string_view vid_text = takeField(text, cursor);
        if (vid_text.empty())
            zombie_fatal("malformed trace line ", line, " in ", path_,
                         ": '", std::string(text), "'");
        out.arrival = parse_u64(ts, "arrival");
        const char op_char = op_tok.size() == 1 ? op_tok[0] : '?';
        if (op_char == 'W' || op_char == 'w')
            out.op = OpType::Write;
        else if (op_char == 'R' || op_char == 'r')
            out.op = OpType::Read;
        else
            zombie_fatal("bad op '", std::string(op_tok),
                         "' at line ", line, " in ", path_);
        out.lpn = parse_u64(lpn_tok, "lpn");
        if (fp_hex.size() != 32)
            zombie_fatal("bad fingerprint '", std::string(fp_hex),
                         "' at line ", line, " in ", path_,
                         " (need 32 hex digits)");
        out.fp = Fingerprint::fromHex(fp_hex);
        if (vid_text == "-")
            out.valueId = TraceRecord::kNoValueId;
        else
            out.valueId = parse_u64(vid_text, "value id");
        const std::string_view tenant_tok = takeField(text, cursor);
        const std::uint64_t tenant =
            tenant_tok.empty() ? 0 : parse_u64(tenant_tok, "tenant");
        checkRecord(out, tenant);
        out.tenant = static_cast<std::uint16_t>(tenant);
        return true;
    }
    return false;
}

void
TraceReader::checkRecord(const TraceRecord &rec, std::uint64_t tenant)
{
    // Tenant ids above the ceiling alias another namespace once
    // narrowed, the adapters' (tenant << 48) | lpn keys stay disjoint
    // only below kMaxTracePages, and the admission pump needs
    // nondecreasing arrivals.
    const char *where =
        fmt == TraceFormat::Binary ? " at record " : " at line ";
    if (tenant >= kMaxTenants)
        zombie_fatal("tenant ", tenant, where, line, " in ", path_,
                     " (tenant ids run below ", kMaxTenants, ")");
    if (rec.lpn >= kMaxTracePages)
        zombie_fatal("lpn ", rec.lpn, where, line, " in ", path_,
                     " is past the 2^40-page range");
    if (rec.arrival < lastArrival)
        zombie_fatal("arrival ", rec.arrival, where, line, " in ",
                     path_, " precedes the previous record's ",
                     lastArrival);
    lastArrival = rec.arrival;
}

std::vector<TraceRecord>
TraceReader::readAll()
{
    std::vector<TraceRecord> records;
    TraceRecord rec;
    while (next(rec))
        records.push_back(rec);
    return records;
}

void
writeTraceFile(const std::string &path, TraceFormat format,
               const std::vector<TraceRecord> &records)
{
    TraceWriter writer(path, format);
    for (const auto &rec : records)
        writer.write(rec);
}

} // namespace zombie

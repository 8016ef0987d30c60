/**
 * @file
 * Trace (de)serialization.
 *
 * Two interchangeable formats:
 *  - text: one request per line, "ts_ns OP lpn fp_hex value_id"
 *    (value_id = "-" for external traces) plus a trailing tenant
 *    column when the record belongs to a tenant other than 0, easy
 *    to inspect/diff;
 *  - binary: packed little-endian records behind a magic header,
 *    ~10x smaller and faster for multi-million-request traces.
 */

#ifndef ZOMBIE_TRACE_IO_HH
#define ZOMBIE_TRACE_IO_HH

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "trace/source.hh"
#include "util/buffered_reader.hh"
#include "util/byte_source.hh"

namespace zombie
{

/** On-disk trace format selector. */
enum class TraceFormat
{
    Text,
    Binary,
};

/** Streaming writer; fatal on I/O errors (user environment problem). */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, TraceFormat format);
    ~TraceWriter();

    void write(const TraceRecord &rec);
    void close();

    std::uint64_t recordsWritten() const { return count; }

  private:
    std::ofstream out;
    TraceFormat fmt;
    std::uint64_t count = 0;
};

/**
 * Streaming reader mirroring TraceWriter. Reads through
 * util/byte_source, so gzip/zstd-compressed traces (text or binary)
 * replay transparently; text lines come from the zero-copy buffered
 * reader (CRLF-tolerant), binary records from a chunked refill
 * buffer — no istream machinery on the per-record path.
 *
 * A record the simulator cannot replay is malformed in either form:
 * a tenant id at or past kMaxTenants, an LPN at or past
 * kMaxTracePages, or an arrival before the previous record's.
 */
class TraceReader : public TraceSource
{
  public:
    explicit TraceReader(const std::string &path);

    /**
     * @return false at end of trace; fatal, naming the file and the
     * line (text) or record index (binary), on malformed input.
     */
    bool next(TraceRecord &out) override;

    /** Drain the remainder of the trace. */
    std::vector<TraceRecord> readAll();

    TraceFormat format() const { return fmt; }

  private:
    /** Refill the binary chunk buffer; @return bytes available. */
    std::size_t binAvail(std::size_t need);

    /** Fatal unless the decoded fields fit the simulator (see the
     *  class comment); @p tenant is checked before narrowing. */
    void checkRecord(const TraceRecord &rec, std::uint64_t tenant);

    /** Binary-record byte stream; null in text mode. */
    std::unique_ptr<ByteSource> bin;
    std::vector<char> buf;
    std::size_t pos = 0;
    std::size_t limit = 0;

    /** Text-line stream; null in binary mode. */
    std::unique_ptr<BufferedLineReader> lines;

    std::string path_;
    TraceFormat fmt;
    std::uint64_t line = 0;
    Tick lastArrival = 0;
};

/** Convenience: write a whole trace in one call. */
void writeTraceFile(const std::string &path, TraceFormat format,
                    const std::vector<TraceRecord> &records);

} // namespace zombie

#endif // ZOMBIE_TRACE_IO_HH

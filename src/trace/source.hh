/**
 * @file
 * Streaming trace-record sources.
 *
 * TraceSource is the one pull interface the whole replay path speaks:
 * the synthetic generator, the native trace readers and the external
 * block-trace parsers (trace/formats.hh) all implement it, and the
 * simulator consumes records one at a time — no whole-trace vector
 * anywhere between a trace file and the host queue (DESIGN.md
 * section 7.16). Adapters (trace/adapters.hh) are TraceSources that
 * wrap another TraceSource, so format quirks compose as decorators.
 *
 * Sources that read from files or other forward-only inputs cannot
 * rewind; multi-pass consumers (the LBA compactor's footprint scan,
 * grid sweeps, differential tests) therefore work with a
 * TraceSourceFactory that rebuilds the chain from scratch. Every
 * source in this repo is deterministic, so two factory invocations
 * yield byte-identical record streams.
 */

#ifndef ZOMBIE_TRACE_SOURCE_HH
#define ZOMBIE_TRACE_SOURCE_HH

#include <functional>
#include <memory>
#include <vector>

#include "trace/record.hh"

namespace zombie
{

/** Pull interface over any record stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record into @p out.
     * @return false once the stream is exhausted; the stream must
     * not be read past its first false.
     */
    virtual bool next(TraceRecord &out) = 0;
};

/** Rebuilds an identical source chain from the start of its stream. */
using TraceSourceFactory =
    std::function<std::unique_ptr<TraceSource>()>;

/**
 * Replays an in-memory record vector. The records are shared and
 * immutable, so any number of sources (one per grid cell, across
 * threads) can replay one vector without copying it.
 */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(
        std::shared_ptr<const std::vector<TraceRecord>> records)
        : recs(std::move(records))
    {
    }

    /** Take ownership of @p records. */
    explicit VectorSource(std::vector<TraceRecord> records)
        : recs(std::make_shared<const std::vector<TraceRecord>>(
              std::move(records)))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= recs->size())
            return false;
        out = (*recs)[pos++];
        return true;
    }

  private:
    std::shared_ptr<const std::vector<TraceRecord>> recs;
    std::size_t pos = 0;
};

/** Drain @p source into a vector (tests and analyses only; the
 *  replay path never materializes). */
std::vector<TraceRecord> drainSource(TraceSource &source);

} // namespace zombie

#endif // ZOMBIE_TRACE_SOURCE_HH

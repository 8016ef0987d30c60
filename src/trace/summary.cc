#include "trace/summary.hh"

namespace zombie
{

void
TraceSummarizer::observe(const TraceRecord &rec)
{
    if (first) {
        summary.firstArrival = rec.arrival;
        first = false;
    }
    summary.lastArrival = rec.arrival;

    if (countLpns && lpns.insert(rec.lpn))
        ++summary.distinctLpns;

    if (rec.isWrite()) {
        ++summary.writes;
        if (countValues && writeValues.insert(rec.fp))
            ++summary.distinctWriteValues;
    } else {
        ++summary.reads;
        if (countValues && readValues.insert(rec.fp))
            ++summary.distinctReadValues;
    }
}

TraceSummary
summarizeTrace(const std::vector<TraceRecord> &records)
{
    TraceSummarizer s;
    for (const auto &rec : records)
        s.observe(rec);
    return s.finish();
}

} // namespace zombie

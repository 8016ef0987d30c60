#include "trace/generator.hh"

#include "util/logging.hh"

namespace zombie
{

SyntheticTraceGenerator::SyntheticTraceGenerator(WorkloadProfile profile)
    : prof(std::move(profile)),
      rng(prof.seed),
      valueZipf(prof.popularPoolSize(), prof.valueAlpha),
      updateZipf(prof.footprintPages(), prof.updateLpnAlpha),
      readZipf(prof.footprintPages(), prof.readLpnAlpha),
      freshCounter(prof.popularPoolSize()),
      coldPages(prof.coldReadPages())
{
    prof.validate();
    poolValueWritten.assign(prof.popularPoolSize(), false);
    lpnContent.reserve(prof.footprintPages());
}

Tick
SyntheticTraceGenerator::nextArrivalDelta()
{
    double mean_us;
    if (burstRemaining > 0) {
        --burstRemaining;
        mean_us = prof.burstInterarrivalUs;
    } else if (rng.nextBool(prof.burstProb)) {
        burstRemaining = prof.burstLength;
        mean_us = prof.burstInterarrivalUs;
    } else {
        mean_us = prof.meanInterarrivalUs;
    }
    const double delta_us = rng.nextExponential(mean_us);
    return static_cast<Tick>(delta_us * 1000.0) + 1;
}

std::uint64_t
SyntheticTraceGenerator::pickValue(bool updating,
                                   std::uint64_t current_vid)
{
    // Redundant rewrite of the content already stored at the target
    // page (the Figure 13 W2/W3 pattern).
    if (updating && current_vid != TraceRecord::kNoValueId &&
        rng.nextBool(prof.sameValueProb)) {
        ++gstats.sameValueRewrites;
        return current_vid;
    }

    if (rng.nextBool(prof.newValueProb)) {
        ++gstats.freshValueWrites;
        return freshCounter++;
    }

    const std::uint64_t rank = valueZipf.sample(rng);
    if (!poolValueWritten[rank]) {
        poolValueWritten[rank] = true;
        ++gstats.distinctPoolValuesWritten;
    }
    return rank;
}

void
SyntheticTraceGenerator::emitWrite(TraceRecord &out)
{
    ++gstats.writes;

    const std::uint64_t used = lpnContent.size();
    const bool can_grow = used < prof.footprintPages();
    const bool must_grow = used == 0;
    // Fill the footprint at a constant rate so invalidations (and thus
    // garbage-page creation) are spread across the whole trace.
    const bool grow =
        must_grow || (can_grow && rng.nextBool(prof.footprintFrac));

    // Footprint indices are relative; the cold-read region occupies
    // LPNs [0, coldPages), writes land above it.
    std::uint64_t idx;
    std::uint64_t current_vid = TraceRecord::kNoValueId;
    if (grow) {
        idx = used;
        lpnContent.push_back(TraceRecord::kNoValueId);
        ++gstats.newLpnWrites;
    } else {
        const std::uint64_t rank = updateZipf.sample(rng);
        idx = rank % used;
        current_vid = lpnContent[idx];
        ++gstats.updateWrites;
    }

    const std::uint64_t vid = pickValue(!grow, current_vid);
    lpnContent[idx] = vid;

    out.op = OpType::Write;
    out.lpn = coldPages + idx;
    out.valueId = vid;
    out.fp = Fingerprint::fromValueId(vid);
}

void
SyntheticTraceGenerator::emitRead(TraceRecord &out)
{
    ++gstats.reads;

    Lpn lpn;
    std::uint64_t vid;
    if (coldPages > 0 && rng.nextBool(prof.coldReadFrac)) {
        // Cold read: pre-existing, never-written unique content.
        lpn = rng.nextBounded(coldPages);
        vid = kColdValueBase + lpn;
    } else {
        const std::uint64_t used = lpnContent.size();
        zombie_assert(used > 0, "read emitted before any write");
        const std::uint64_t rank = readZipf.sample(rng);
        const std::uint64_t idx = rank % used;
        lpn = coldPages + idx;
        vid = lpnContent[idx];
    }

    if (readValues.insert(vid).second)
        ++gstats.distinctValuesRead;

    out.op = OpType::Read;
    out.lpn = lpn;
    out.valueId = vid;
    out.fp = Fingerprint::fromValueId(vid);
}

bool
SyntheticTraceGenerator::next(TraceRecord &out)
{
    if (emitted >= prof.requests)
        return false;
    ++emitted;

    clock += nextArrivalDelta();
    out = TraceRecord{};
    out.arrival = clock;

    // The very first request must be a write so reads have content.
    const bool is_write =
        lpnContent.empty() || rng.nextBool(prof.writeRatio);
    if (is_write)
        emitWrite(out);
    else
        emitRead(out);
    return true;
}

std::vector<TraceRecord>
SyntheticTraceGenerator::generateAll()
{
    std::vector<TraceRecord> records;
    records.reserve(prof.requests);
    TraceRecord rec;
    while (next(rec))
        records.push_back(rec);
    return records;
}

std::uint64_t
SyntheticTraceGenerator::contentAt(Lpn lpn) const
{
    if (lpn < coldPages)
        return kColdValueBase + lpn;
    const std::uint64_t idx = lpn - coldPages;
    zombie_assert(idx < lpnContent.size(), "contentAt: unwritten LPN");
    return lpnContent[idx];
}

} // namespace zombie

#include "nand/resource_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace zombie
{

ResourceModel::ResourceModel(const Geometry &geometry,
                             const TimingModel &timing)
    : geom(geometry), times(timing),
      channelBusyUntil(geom.channels(), 0),
      dieBusyUntil(geom.totalDies(), 0),
      channelBusyTotal(geom.channels(), 0),
      dieBusyTotal(geom.totalDies(), 0),
      dieOutstanding(geom.totalDies())
{
    // Group size for the busy-until minima: halve the per-channel
    // die count down to <= 16 dies per group so a group rescan stays
    // within a couple of cache lines; groups tile channels exactly.
    groupDies = geom.diesPerChip() * geom.chipsPerChannel();
    while (groupDies > 16 && groupDies % 2 == 0)
        groupDies /= 2;
    dieGroupMin.assign(geom.totalDies() / groupDies, 0);
    // A die's backlog window peaks when paced GC stacks a few
    // blocks' worth of relocation ops behind the host stream; two
    // blocks of read/program pairs bounds every observed workload
    // with a wide margin. Reserving up front keeps the steady-state
    // request path allocation-free (DESIGN.md section 7.10); a
    // pathological backlog beyond this merely regrows the ring.
    const std::size_t window = 4ul * geom.pagesPerBlock();
    for (RingBuffer<Tick> &out : dieOutstanding)
        out.reserve(window);
}

namespace
{

/** Static span names keyed by op kind (TraceSink literal contract). */
const char *
opSpanName(FlashOp op)
{
    switch (op) {
      case FlashOp::Read:
        return "read";
      case FlashOp::Program:
        return "program";
      case FlashOp::Erase:
        return "erase";
    }
    return "?";
}

} // namespace

std::string
dieTrackName(const Geometry &geom, std::uint64_t die)
{
    const std::uint64_t dies = geom.diesPerChip();
    const std::uint64_t chips = geom.chipsPerChannel();
    const std::uint64_t chan = die / (dies * chips);
    const std::uint64_t chip = (die / dies) % chips;
    return "chan" + std::to_string(chan) + ".chip" +
           std::to_string(chip) + ".die" + std::to_string(die % dies);
}

Tick
ResourceModel::scheduleOp(FlashOp op, Ppn ppn, Tick earliest, bool gc)
{
    const std::uint64_t die = geom.dieOfPpn(ppn);
    const std::uint32_t channel = geom.channelOfPpn(ppn);
    Tick &die_free = dieBusyUntil[die];
    Tick &chan_free = channelBusyUntil[channel];
    const Tick die_was = die_free;

    const Tick cmd = times.commandOverhead;
    const Tick xfer = times.pageTransfer;
    const Tick array = times.arrayLatency(op);

    /** The op's die-occupancy phase, reported to the trace sink. */
    Tick die_start = 0;

    Tick completion = 0;
    switch (op) {
      case FlashOp::Read: {
        // Array sense first, then data-out over the channel. The
        // channel's busy-until horizon only advances when transfers
        // genuinely contend (start at or before the horizon); a
        // transfer far in the future leaves the idle bus unreserved —
        // a scalar busy-until cannot represent the gap, and
        // reserving it would let one backlogged die stall its whole
        // channel ("horizon ratchet").
        const Tick start = std::max(earliest, die_free) + cmd;
        const Tick sensed = start + array;
        const Tick xfer_start = std::max(sensed, chan_free);
        completion = xfer_start + xfer;
        // The page register holds data until the transfer drains.
        dieBusyTotal[die] += completion - start;
        die_start = start;
        die_free = completion;
        channelBusyTotal[channel] += xfer;
        if (sensed <= chan_free)
            chan_free = completion;
        break;
      }
      case FlashOp::Program: {
        // Data-in over the channel first, then the array program.
        // The bus is held only for the transfer itself — the page
        // register buffers the data while the die drains its queue —
        // so one backlogged die never stalls its whole channel.
        const Tick xfer_start = std::max(earliest, chan_free) + cmd;
        const Tick loaded = xfer_start + xfer;
        const Tick prog_start = std::max(loaded, die_free);
        completion = prog_start + array;
        channelBusyTotal[channel] += xfer;
        if (earliest <= chan_free)
            chan_free = loaded;
        dieBusyTotal[die] += completion - prog_start;
        die_start = prog_start;
        die_free = completion;
        break;
      }
      case FlashOp::Erase: {
        // Array-only; the channel carries just the command cycles.
        const Tick start = std::max(earliest, die_free) + cmd;
        completion = start + array;
        dieBusyTotal[die] += completion - start;
        die_start = start;
        die_free = completion;
        break;
      }
    }
    updateGroupMin(die, die_was);
    noteDieIssue(die, earliest, completion);
    if (tracer)
        tracer->span(static_cast<std::uint32_t>(die), opSpanName(op),
                     gc ? "gc" : hostCategory, die_start, completion);
    return completion;
}

void
ResourceModel::updateGroupMin(std::uint64_t die, Tick die_was)
{
    // Busy-untils only grow, so the group's minimum moved only if
    // the op landed on a die that held it; rescan just that group.
    const std::uint64_t group = die / groupDies;
    if (die_was != dieGroupMin[group])
        return;
    const std::uint64_t base = group * groupDies;
    Tick low = dieBusyUntil[base];
    for (std::uint64_t i = 1; i < groupDies; ++i)
        low = std::min(low, dieBusyUntil[base + i]);
    dieGroupMin[group] = low;
}

void
ResourceModel::setTraceSink(TraceSink *sink)
{
    tracer = sink;
    if (!tracer)
        return;
    for (std::uint64_t die = 0; die < geom.totalDies(); ++die)
        tracer->declareTrack(static_cast<std::uint32_t>(die),
                             dieTrackName(geom, die));
}

void
ResourceModel::registerStats(StatRegistry &registry) const
{
    for (std::uint64_t die = 0; die < geom.totalDies(); ++die)
        registry.addCounter("nand." + dieTrackName(geom, die) +
                                ".busy_ticks",
                            &dieBusyTotal[die]);
    registry.addGauge("nand.max_die_backlog", [this] {
        return static_cast<double>(maxDieBacklog());
    });
}

void
ResourceModel::noteDieIssue(std::uint64_t die, Tick issued,
                            Tick completion)
{
    // Ops already complete when this one was issued have retired;
    // what remains is the backlog the new op queued behind (die ops
    // serialize, so completions stay sorted no matter where the
    // window is cut). Observation only: no busy-until horizon moves
    // here.
    RingBuffer<Tick> &out = dieOutstanding[die];
    while (!out.empty() && out.front() <= issued)
        out.pop_front();
    out.push_back(completion);
    backlogHigh = std::max<std::uint64_t>(backlogHigh, out.size());
}

std::uint32_t
ResourceModel::dieBacklog(std::uint64_t die) const
{
    zombie_assert(die < dieOutstanding.size(),
                  "die index out of bounds");
    return static_cast<std::uint32_t>(dieOutstanding[die].size());
}

std::uint32_t
ResourceModel::pendingAt(std::uint64_t die, Tick now) const
{
    zombie_assert(die < dieOutstanding.size(),
                  "die index out of bounds");
    const RingBuffer<Tick> &out = dieOutstanding[die];
    // Completions are sorted; count the suffix strictly after now
    // (upper_bound over the ring by index).
    std::size_t lo = 0, hi = out.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (out[mid] <= now)
            lo = mid + 1;
        else
            hi = mid;
    }
    return static_cast<std::uint32_t>(out.size() - lo);
}

Tick
ResourceModel::dieFreeAt(Ppn ppn) const
{
    return dieBusyUntil[geom.dieOfPpn(ppn)];
}

Tick
ResourceModel::channelFreeAt(Ppn ppn) const
{
    return channelBusyUntil[geom.channelOfPpn(ppn)];
}

Tick
ResourceModel::dieFreeAtIndex(std::uint64_t die) const
{
    zombie_assert(die < dieBusyUntil.size(), "die index out of bounds");
    return dieBusyUntil[die];
}

double
ResourceModel::channelUtilization(Tick horizon) const
{
    if (horizon == 0)
        return 0.0;
    Tick busy = 0;
    for (Tick t : channelBusyTotal)
        busy += t;
    return static_cast<double>(busy) /
           (static_cast<double>(horizon) * channelBusyTotal.size());
}

double
ResourceModel::dieUtilization(Tick horizon) const
{
    if (horizon == 0)
        return 0.0;
    Tick busy = 0;
    for (Tick t : dieBusyTotal)
        busy += t;
    return static_cast<double>(busy) /
           (static_cast<double>(horizon) * dieBusyTotal.size());
}

} // namespace zombie

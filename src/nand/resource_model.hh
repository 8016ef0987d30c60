/**
 * @file
 * Channel/die contention model (SSDSim-style).
 *
 * The drive's parallelism comes from independently functioning
 * channels with multiple chips (Table I: 8x8, 4 dies/chip); the die is
 * the concurrency unit for array operations and the channel bus
 * serializes page transfers. Each resource keeps a busy-until
 * timestamp; scheduling an operation composes bus and array phases:
 *
 *   read:    array(tR) on die, then data-out transfer on channel
 *   program: data-in transfer on channel, then array(tPROG) on die
 *   erase:   array(tBERS) on die only
 *
 * scheduleOp() returns the completion tick; the difference to the
 * request's arrival is its device-level latency, which is where GC
 * interference and write/read asymmetry show up (paper sections I, VI-B).
 */

#ifndef ZOMBIE_NAND_RESOURCE_MODEL_HH
#define ZOMBIE_NAND_RESOURCE_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nand/geometry.hh"
#include "nand/timing.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_sink.hh"
#include "util/ring.hh"
#include "util/types.hh"

namespace zombie
{

/** Busy-until schedule for every channel and die. */
class ResourceModel
{
  public:
    ResourceModel(const Geometry &geom, const TimingModel &timing);

    /**
     * Schedule @p op against the page @p ppn lives on, no earlier
     * than @p earliest. Advances the die/channel busy-until state.
     * @p gc tags the op's origin for the trace sink only; it never
     * affects timing. @return completion tick.
     */
    Tick scheduleOp(FlashOp op, Ppn ppn, Tick earliest,
                    bool gc = false);

    /** Earliest tick at which the die owning @p ppn is idle. */
    Tick dieFreeAt(Ppn ppn) const;
    Tick channelFreeAt(Ppn ppn) const;

    /** Busy-until of a die by flat index (dynamic write allocation). */
    Tick dieFreeAtIndex(std::uint64_t die) const;

    /**
     * Raw view of the per-die busy-until table, one entry per die in
     * flat die order. The table is sized at construction and never
     * reallocates, so the pointer stays valid for the model's
     * lifetime; the BlockManager reads it directly on the write
     * allocation path instead of probing through a std::function.
     */
    const Tick *dieBusyTable() const { return dieBusyUntil.data(); }

    /**
     * Raw view of the per-group die busy-until minima, one entry per
     * group of dieGroupDies() consecutive dies in flat die order.
     * Groups never span channels (the group size divides the
     * per-channel die count). Like dieBusyTable(), sized at
     * construction and never reallocated. The BlockManager scans
     * this instead of every die to find the least-loaded plane
     * (DESIGN.md section 7.15).
     */
    const Tick *dieGroupMinTable() const { return dieGroupMin.data(); }

    /** Dies per group-min entry (a power-of-two divisor of the
     *  per-channel die count). */
    std::uint64_t dieGroupDies() const { return groupDies; }

    /**
     * Pending-queue accounting (admission backlog signals). The
     * model keeps, per die, the completion ticks of issued ops that
     * were still outstanding when the die last accepted work. This
     * is pure observation: it never advances a busy-until horizon,
     * so it cannot violate the horizon-ratchet rule above.
     */

    /**
     * Ops issued to @p die and not yet complete as of the die's most
     * recent issue point (its schedule backlog, including the op
     * then executing). 0 before the first issue.
     */
    std::uint32_t dieBacklog(std::uint64_t die) const;

    /** High-water mark of any die's backlog over the run. */
    std::uint64_t maxDieBacklog() const { return backlogHigh; }

    /** Fraction of [0, horizon] each resource class was busy. */
    double channelUtilization(Tick horizon) const;
    double dieUtilization(Tick horizon) const;

    const TimingModel &timing() const { return times; }

    /**
     * Attach an operation tracer (not owned; nullptr detaches). One
     * track per die, named "chan<c>.chip<k>.die<d>"; each scheduled
     * op emits one span covering its die-occupancy phase, so spans
     * on a track never overlap and start ticks are nondecreasing in
     * recording order. Disabled tracing costs one null check per op.
     */
    void setTraceSink(TraceSink *sink);

    /**
     * Category stamped on host-op spans (GC ops always record under
     * "gc"). Must point at static storage (TraceSink contract); the
     * controller switches it per command to attribute spans to the
     * issuing tenant. Defaults to "host".
     */
    void setHostSpanCategory(const char *category)
    {
        hostCategory = category;
    }

    /**
     * Register per-die busy-tick counters
     * ("nand.chan<c>.chip<k>.die<d>.busy_ticks") and the
     * "nand.max_die_backlog" gauge. The busy tables are sized at
     * construction and never reallocate, so the registered pointers
     * stay valid for the model's lifetime.
     */
    void registerStats(StatRegistry &registry) const;

  private:
    /**
     * One die's outstanding-op window: the completion ticks of ops
     * issued to the die and still incomplete at its latest issue
     * point, sorted (die ops serialize). It stores the oldest
     * completion and, per later op, one byte naming the gap to the
     * previous completion (DESIGN.md section 7.8): code k in 1..3 is
     * a gap of gapTicks[k - 1], code 0 a gap held whole, in order,
     * in oddGaps. The newest completion is the die's busy-until, so
     * it is not stored. Flat rings: the window stops exercising the
     * allocator once each ring reaches its high-water mark.
     */
    struct DieWindow
    {
        Tick oldest = 0;                //!< front completion
        std::uint64_t count = 0;        //!< outstanding ops
        RingBuffer<std::uint8_t> gaps;  //!< count - 1 gap codes
        RingBuffer<Tick> oddGaps;       //!< one per code 0, in order
    };

    /**
     * Record one issued op: retire the completions at or before
     * @p issued, then append @p completion, which follows the die's
     * previous busy-until @p die_was.
     */
    void noteDieIssue(std::uint64_t die, Tick issued, Tick die_was,
                      Tick completion);

    /** Keep a die's group minimum current after its busy-until grew
     *  from @p die_was (see scheduleOp). */
    void updateGroupMin(std::uint64_t die, Tick die_was);

    Geometry geom;
    TimingModel times;
    std::vector<Tick> channelBusyUntil;
    std::vector<Tick> dieBusyUntil;

    /**
     * Per-group minima over dieBusyUntil (dies in flat order,
     * groupDies per entry). Maintained lazily: busy-untils only ever
     * grow, so a group's minimum can change only when the op landed
     * on a die that held it — one compare per op, and a short
     * rescan of the group only on that rare hit.
     */
    std::vector<Tick> dieGroupMin;
    std::uint64_t groupDies = 1;
    std::vector<Tick> channelBusyTotal;
    std::vector<Tick> dieBusyTotal;

    /** Outstanding-op window per die (dieBacklog). */
    std::vector<DieWindow> dieWindows;

    /**
     * The gaps codes 1..3 name: back-to-back die occupancy of a read
     * (command + tR + transfer), a program (tPROG) and an erase
     * (command + tBERS), from the timing model.
     */
    std::array<Tick, 3> gapTicks;

    /** Backlog high-water mark across all dies (maxDieBacklog). */
    std::uint64_t backlogHigh = 0;

    /** Operation tracer; null (the default) disables span recording. */
    TraceSink *tracer = nullptr;

    /** Span category for host-origin ops (static storage). */
    const char *hostCategory = "host";
};

/** "chan<c>.chip<k>.die<d>" label for a flat die index. */
std::string dieTrackName(const Geometry &geom, std::uint64_t die);

} // namespace zombie

#endif // ZOMBIE_NAND_RESOURCE_MODEL_HH

/**
 * @file
 * Deterministic discrete-event engine for the controller pipeline.
 *
 * The simulator's timing layer is event-driven: host arrivals,
 * dispatch completions and flash completions are events scheduled at
 * absolute ticks. Events fire in tick order; events that share a
 * tick fire in the order they were scheduled (a stable FIFO
 * tie-break via a monotone sequence number), so a run is a pure
 * function of the inputs and same-seed runs stay byte-identical.
 *
 * Events are typed and POD-sized: a tagged EventKind plus a small
 * fixed payload (context index, argument), dispatched to a single
 * EventSink. Storage is split by how a stream is scheduled
 * (DESIGN.md section 7.14):
 *
 *  - Monotone lanes: streams whose schedule ticks are nondecreasing
 *    (host arrivals; dispatch-done events, which add a constant
 *    overhead to a monotone clock) are plain FIFO rings. Their front
 *    is their minimum, so insert and extract are O(1) instead of
 *    O(log n), and the heap never carries arrivals at all.
 *  - A 4-ary min-heap for everything that genuinely completes out of
 *    order (flash completions, GC tails, sampler boundaries). This
 *    heap only ever holds the in-flight flash window, so it stays a
 *    few cache lines hot.
 *
 * A dispatch picks the earliest of the heap top and the lane fronts
 * by (when, seq). Sequence numbers are allocated at schedule time
 * from two bands: the arrival lane draws from a low band counting
 * from 0, every other storage from a high band starting at
 * kNormalSeqBase. Within a band the numbering is the schedule
 * order, so the dispatch order is exactly the order a single heap
 * would produce if every arrival were scheduled before the first
 * drain — an arrival then always carries the smaller seq in a
 * same-tick tie. The banding makes that tie-break independent of
 * *when* the arrival was pushed, which is what lets streamed
 * admission (runBefore + submit, record by record) reproduce the
 * submit-everything dispatch order byte-for-byte (DESIGN.md
 * section 7.16).
 *
 * Everything is flat vectors/rings, so the engine performs zero heap
 * allocations once each storage has reached its high-water mark — no
 * std::function captures, no per-event nodes (DESIGN.md section
 * 7.10).
 *
 * Handlers may schedule further events at or after the tick being
 * dispatched; scheduling strictly in the past is a model bug and
 * panics.
 */

#ifndef ZOMBIE_SIM_EVENT_HH
#define ZOMBIE_SIM_EVENT_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/ring.hh"
#include "util/types.hh"

namespace zombie
{

/** What a scheduled event means to the sink that receives it. */
enum class EventKind : std::uint8_t
{
    HostArrival,  //!< A trace record reaches the host queue.
    DispatchDone, //!< FTL overhead elapsed; issue to flash.
    FlashDone,    //!< User-visible flash completion.
    GcTail,       //!< Background GC chain drains (bookkeeping only).
    StatsSample,  //!< Epoch-sampler boundary (telemetry only).
};

/** Receiver of dispatched events (the controller, or a test). */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** Handle one event at @p now with its fixed payload. */
    virtual void event(Tick now, EventKind kind, std::uint32_t ctx,
                       std::uint64_t arg) = 0;
};

/** Tick-ordered typed event queue with stable FIFO tie-breaking. */
class EventEngine
{
  public:
    /**
     * FIFO lanes for monotone event streams. A producer that can
     * prove its schedule ticks are nondecreasing (asserted per push)
     * gets O(1) insert/extract instead of a heap walk.
     */
    static constexpr std::uint32_t kMonotoneLanes = 2;

    /** Lane assignments used by the controller. */
    static constexpr std::uint32_t kArrivalLane = 0;
    static constexpr std::uint32_t kDispatchLane = 1;

    /**
     * First sequence number of the non-arrival band. Arrival-lane
     * events count from 0; everything else counts from here, so an
     * arrival wins every same-tick tie against non-arrival events
     * regardless of push order (see the file comment).
     */
    static constexpr std::uint64_t kNormalSeqBase = 1ull << 63;

    /** Route all dispatched events to @p sink (not owned). */
    void setSink(EventSink *sink) { target = sink; }

    /** Enqueue @p kind at @p when (>= now()) with its payload. */
    void
    schedule(Tick when, EventKind kind, std::uint32_t ctx = 0,
             std::uint64_t arg = 0)
    {
        zombie_assert(when >= current,
                      "event scheduled in the past (", when, " < ",
                      current, ")");
        heapPush(heap, Event{when, nextSeq++, arg, ctx, kind});
    }

    /**
     * Enqueue on monotone lane @p lane: @p when must be >= the
     * lane's previous push (and >= now()). Dispatch order is
     * identical to schedule() — the lane only changes the cost.
     */
    void
    scheduleMonotone(std::uint32_t lane, Tick when, EventKind kind,
                     std::uint32_t ctx = 0, std::uint64_t arg = 0)
    {
        zombie_assert(when >= current,
                      "event scheduled in the past (", when, " < ",
                      current, ")");
        zombie_assert(lane < kMonotoneLanes, "lane out of range");
        zombie_assert(when >= laneTail[lane],
                      "non-monotone push on lane ", lane, " (", when,
                      " < ", laneTail[lane], ")");
        laneTail[lane] = when;
        const std::uint64_t seq =
            lane == kArrivalLane ? arrivalSeq++ : nextSeq++;
        lanes[lane].push_back(Event{when, seq, arg, ctx, kind});
    }

    /** Fire the earliest pending event. Panics when empty. */
    void step();

    /** Fire events until none remain. */
    void run();

    /** Fire events up to and including @p until. */
    void runUntil(Tick until);

    /**
     * Fire every event that dispatches before an arrival-lane push
     * at @p when would — i.e. everything sorting before (when,
     * next-arrival-seq). The streamed-admission pump: calling this
     * just before each submit keeps the dispatch order identical to
     * submitting the whole trace first and draining once, while the
     * arrival backlog stays bounded by the in-flight window.
     */
    void runBefore(Tick when);

    /** Pre-size the heap so steady state never reallocates. */
    void reserve(std::size_t n) { heap.reserve(n); }

    /** Pre-size lane @p lane's ring likewise. */
    void
    reserveLane(std::uint32_t lane, std::size_t n)
    {
        zombie_assert(lane < kMonotoneLanes, "lane out of range");
        lanes[lane].reserve(n);
    }

    bool
    empty() const
    {
        if (!heap.empty())
            return false;
        for (const auto &lane : lanes) {
            if (!lane.empty())
                return false;
        }
        return true;
    }

    std::size_t
    pending() const
    {
        std::size_t n = heap.size();
        for (const auto &lane : lanes)
            n += lane.size();
        return n;
    }

    /** Tick of the event currently or most recently dispatched. */
    Tick now() const { return current; }

    /** Tick of the earliest pending event. Panics when empty. */
    Tick nextAt() const;

    /** Total events dispatched over the engine's lifetime. */
    std::uint64_t dispatched() const { return fired; }

  private:
    /** One scheduled event: POD, lives inline in its storage. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t arg;
        std::uint32_t ctx;
        EventKind kind;
    };

    /** Dispatch order: earliest tick first, then schedule order. */
    static bool
    before(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * Earliest pending event across every storage, or nullptr when
     * idle. Lane fronts are lane minima (pushes are monotone and
     * FIFO breaks same-tick ties by seq), so comparing one candidate
     * per storage finds the global min. @p lane_out reports which
     * storage held it: -1 = heap, otherwise the monotone lane.
     */
    const Event *peekNext(int &lane_out) const;

    /** Pop + dispatch one event found by peekNext. */
    void dispatch(const Event &ev, int lane);

    /** Dispatch loop bounded by (bound_when, bound_seq). */
    void runBounded(Tick bound_when, std::uint64_t bound_seq);

    static void heapPush(std::vector<Event> &h, const Event &ev);
    static void heapPopMin(std::vector<Event> &h);

    /** 4-ary min-heap: shallower than binary for the same size, so
     *  extract touches fewer cache lines. */
    std::vector<Event> heap;

    RingBuffer<Event> lanes[kMonotoneLanes];

    /** Last tick pushed per lane (monotonicity guard). */
    Tick laneTail[kMonotoneLanes] = {};

    EventSink *target = nullptr;
    Tick current = 0;

    /** Band counters: arrival lane low, everything else high. */
    std::uint64_t nextSeq = kNormalSeqBase;
    std::uint64_t arrivalSeq = 0;

    std::uint64_t fired = 0;
};

} // namespace zombie

#endif // ZOMBIE_SIM_EVENT_HH

/**
 * @file
 * Deterministic discrete-event engine for the controller pipeline.
 *
 * The simulator's timing layer is event-driven: dispatch completions,
 * flash completions and sampler boundaries are events scheduled at
 * absolute ticks. Events fire in tick order; events that share a
 * tick fire in the order they were scheduled (a stable FIFO
 * tie-break via one monotone sequence counter), so a run is a pure
 * function of the inputs and same-seed runs stay byte-identical.
 * Host arrivals are not events: the admission pump advances the
 * clock to each arrival with runBefore() and admits the command
 * there (DESIGN.md section 7.16).
 *
 * Events are typed and POD-sized: a tagged EventKind plus a small
 * fixed payload (context index, argument), dispatched to a single
 * EventSink. Storage is split by how a stream is scheduled
 * (DESIGN.md section 7.14):
 *
 *  - One FIFO ring for dispatch-done events, whose ticks add a
 *    constant overhead to a monotone clock. Its front is its
 *    minimum, so insert and extract are O(1) instead of O(log n).
 *  - A 4-ary min-heap for everything that completes out of order
 *    (flash completions, sampler boundaries). It only ever holds the
 *    in-flight flash window, so it stays a few cache lines hot.
 *
 * A dispatch picks the earlier of the heap top and the FIFO front by
 * (when, seq), so the dispatch order is exactly the order one heap
 * holding every event would produce.
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
    DispatchDone, //!< FTL overhead elapsed; issue to flash.
    FlashDone,    //!< User-visible flash completion.
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
    /** Route all dispatched events to @p sink (not owned). */
    void setSink(EventSink *sink) { target = sink; }

    /** Enqueue @p kind at @p when (>= now()) on the heap. */
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
     * Enqueue on the FIFO: @p when must be >= every tick already in
     * it (and >= now()). Dispatch order is identical to schedule() —
     * the FIFO only changes the cost.
     */
    void
    scheduleFifo(Tick when, EventKind kind, std::uint32_t ctx = 0,
                 std::uint64_t arg = 0)
    {
        zombie_assert(when >= current,
                      "event scheduled in the past (", when, " < ",
                      current, ")");
        zombie_assert(fifo.empty() || when >= fifo[fifo.size() - 1].when,
                      "non-monotone FIFO push (", when, " < ",
                      fifo[fifo.size() - 1].when, ")");
        fifo.push_back(Event{when, nextSeq++, arg, ctx, kind});
    }

    /** Fire events until none remain. */
    void run();

    /**
     * Fire every event scheduled before @p when (none at it), then
     * set now() to @p when. The admission pump calls this before it
     * admits a command arriving at @p when. Panics when @p when is
     * before now().
     */
    void runBefore(Tick when);

    /** Pre-size the heap so steady state never reallocates. */
    void reserve(std::size_t n) { heap.reserve(n); }

    /** Pre-size the FIFO likewise. */
    void reserveFifo(std::size_t n) { fifo.reserve(n); }

    bool empty() const { return heap.empty() && fifo.empty(); }

    /** Engine clock: the tick of the event being or last
     *  dispatched, or the last runBefore() bound. */
    Tick now() const { return current; }

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
     * Earliest pending event, or nullptr when idle; @p from_fifo
     * reports whether it is the FIFO's front (else the heap's top).
     */
    const Event *peek(bool &from_fifo) const;

    /** Pop + dispatch the event peek() found. */
    void fire(const Event &ev, bool from_fifo);

    static void heapPush(std::vector<Event> &h, const Event &ev);
    static void heapPopMin(std::vector<Event> &h);

    /** 4-ary min-heap: shallower than binary for the same size, so
     *  extract touches fewer cache lines. */
    std::vector<Event> heap;

    /** Monotone pushes: the front is always the minimum. */
    RingBuffer<Event> fifo;

    EventSink *target = nullptr;
    Tick current = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
};

} // namespace zombie

#endif // ZOMBIE_SIM_EVENT_HH

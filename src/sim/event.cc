#include "sim/event.hh"

#include <algorithm>
#include <limits>

namespace zombie
{

void
EventEngine::heapPush(std::vector<Event> &h, const Event &ev)
{
    h.push_back(ev);
    std::size_t i = h.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!before(h[i], h[parent]))
            break;
        std::swap(h[i], h[parent]);
        i = parent;
    }
}

void
EventEngine::heapPopMin(std::vector<Event> &h)
{
    const Event last = h.back();
    h.pop_back();
    if (h.empty())
        return;
    const std::size_t n = h.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t stop = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < stop; ++c) {
            if (before(h[c], h[best]))
                best = c;
        }
        if (!before(h[best], last))
            break;
        h[i] = h[best];
        i = best;
    }
    h[i] = last;
}

const EventEngine::Event *
EventEngine::peekNext(int &lane_out) const
{
    lane_out = -1;
    const Event *best = heap.empty() ? nullptr : &heap[0];
    for (std::uint32_t l = 0; l < kMonotoneLanes; ++l) {
        if (lanes[l].empty())
            continue;
        const Event &front = lanes[l].front();
        if (!best || before(front, *best)) {
            best = &front;
            lane_out = static_cast<int>(l);
        }
    }
    return best;
}

void
EventEngine::dispatch(const Event &ev_ref, int lane)
{
    // Copy before popping: ev_ref points into the storage being
    // popped, and the handler may grow the heap (reallocation).
    const Event ev = ev_ref;
    if (lane < 0)
        heapPopMin(heap);
    else
        lanes[lane].pop_front();
    current = ev.when;
    ++fired;
    target->event(ev.when, ev.kind, ev.ctx, ev.arg);
}

void
EventEngine::step()
{
    zombie_assert(target, "step() with no event sink attached");
    int lane = -1;
    const Event *next = peekNext(lane);
    zombie_assert(next, "step() on an empty event queue");
    dispatch(*next, lane);
}

void
EventEngine::run()
{
    runBounded(std::numeric_limits<Tick>::max(),
               std::numeric_limits<std::uint64_t>::max());
}

void
EventEngine::runBefore(Tick when)
{
    // The bound is the (when, seq) the next arrival-lane push will
    // receive: everything that sorts before it fires, everything at
    // or after it stays pending until that arrival is submitted.
    runBounded(when, arrivalSeq);
}

void
EventEngine::runBounded(Tick bound_when, std::uint64_t bound_seq)
{
    zombie_assert(target, "run() with no event sink attached");
    const Event bound{bound_when, bound_seq, 0, 0,
                      EventKind::HostArrival};
    for (;;) {
        int lane = -1;
        const Event *next = peekNext(lane);
        if (!next || !before(*next, bound))
            return;
        dispatch(*next, lane);
    }
}

void
EventEngine::runUntil(Tick until)
{
    for (;;) {
        int lane = -1;
        const Event *next = peekNext(lane);
        if (!next || next->when > until)
            break;
        step();
    }
    current = std::max(current, until);
}

Tick
EventEngine::nextAt() const
{
    int lane = -1;
    const Event *next = peekNext(lane);
    zombie_assert(next, "nextAt() on an empty event queue");
    return next->when;
}

} // namespace zombie

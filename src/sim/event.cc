#include "sim/event.hh"

#include <algorithm>

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
EventEngine::peek(bool &from_fifo) const
{
    // The FIFO's front is its minimum (monotone pushes, ascending
    // seqs), so one comparison against the heap top finds the
    // earliest event.
    from_fifo = !fifo.empty() &&
                (heap.empty() || before(fifo.front(), heap[0]));
    if (from_fifo)
        return &fifo.front();
    return heap.empty() ? nullptr : &heap[0];
}

void
EventEngine::fire(const Event &ev_ref, bool from_fifo)
{
    // Copy before popping: ev_ref points into the storage being
    // popped, and the handler may grow the heap (reallocation).
    const Event ev = ev_ref;
    if (from_fifo)
        fifo.pop_front();
    else
        heapPopMin(heap);
    current = ev.when;
    ++fired;
    target->event(ev.when, ev.kind, ev.ctx, ev.arg);
}

void
EventEngine::run()
{
    zombie_assert(target, "run() with no event sink attached");
    bool from_fifo = false;
    while (const Event *next = peek(from_fifo))
        fire(*next, from_fifo);
}

void
EventEngine::runBefore(Tick when)
{
    zombie_assert(target, "runBefore() with no event sink attached");
    zombie_assert(when >= current, "runBefore() into the past (",
                  when, " < ", current, ")");
    bool from_fifo = false;
    for (const Event *next = peek(from_fifo);
         next && next->when < when; next = peek(from_fifo))
        fire(*next, from_fifo);
    current = when;
}

} // namespace zombie

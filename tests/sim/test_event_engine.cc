/**
 * @file
 * Tests for the typed deterministic event engine: tick ordering,
 * stable FIFO tie-breaking, scheduling from the sink, runUntil /
 * nextAt boundary semantics, and the past-schedule guard — the
 * properties same-seed byte-identity rests on.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event.hh"

namespace zombie
{
namespace
{

/** Sink that records every dispatch and can run a per-event hook. */
struct RecordingSink : public EventSink
{
    struct Fired
    {
        Tick when;
        EventKind kind;
        std::uint32_t ctx;
        std::uint64_t arg;
    };

    std::vector<Fired> fired;
    std::function<void(Tick, EventKind, std::uint32_t, std::uint64_t)>
        hook;

    void
    event(Tick now, EventKind kind, std::uint32_t ctx,
          std::uint64_t arg) override
    {
        fired.push_back({now, kind, ctx, arg});
        if (hook)
            hook(now, kind, ctx, arg);
    }
};

std::vector<std::uint64_t>
argsOf(const RecordingSink &sink)
{
    std::vector<std::uint64_t> args;
    for (const auto &f : sink.fired)
        args.push_back(f.arg);
    return args;
}

TEST(EventEngine, FiresInTickOrder)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(300, EventKind::GcTail, 0, 3);
    engine.schedule(100, EventKind::GcTail, 0, 1);
    engine.schedule(200, EventKind::GcTail, 0, 2);
    engine.run();
    EXPECT_EQ(argsOf(sink), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(engine.now(), 300u);
    EXPECT_EQ(engine.dispatched(), 3u);
}

TEST(EventEngine, SameTickFifoTieBreak)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    for (std::uint64_t i = 0; i < 8; ++i)
        engine.schedule(50, EventKind::FlashDone, 0, i);
    engine.run();
    EXPECT_EQ(argsOf(sink),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventEngine, PayloadRoundTrips)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(7, EventKind::DispatchDone, 42,
                    0xFEEDFACEDEADBEEFULL);
    engine.run();
    ASSERT_EQ(sink.fired.size(), 1u);
    EXPECT_EQ(sink.fired[0].when, 7u);
    EXPECT_EQ(sink.fired[0].kind, EventKind::DispatchDone);
    EXPECT_EQ(sink.fired[0].ctx, 42u);
    EXPECT_EQ(sink.fired[0].arg, 0xFEEDFACEDEADBEEFULL);
}

TEST(EventEngine, SinkMayScheduleAtCurrentTick)
{
    // A sink scheduling at its own tick runs after every event
    // already pending at that tick (FIFO by sequence number).
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    sink.hook = [&](Tick now, EventKind, std::uint32_t,
                    std::uint64_t arg) {
        if (arg == 0)
            engine.schedule(now, EventKind::GcTail, 0, 2);
    };
    engine.schedule(10, EventKind::GcTail, 0, 0);
    engine.schedule(10, EventKind::GcTail, 0, 1);
    engine.run();
    EXPECT_EQ(argsOf(sink), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(EventEngine, SinkChainsFutureEvents)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    sink.hook = [&](Tick now, EventKind, std::uint32_t,
                    std::uint64_t) {
        if (sink.fired.size() < 4)
            engine.schedule(now + 5, EventKind::GcTail, 0, 0);
    };
    engine.schedule(0, EventKind::GcTail, 0, 0);
    engine.run();
    std::vector<Tick> when;
    for (const auto &f : sink.fired)
        when.push_back(f.when);
    EXPECT_EQ(when, (std::vector<Tick>{0, 5, 10, 15}));
    EXPECT_TRUE(engine.empty());
}

TEST(EventEngine, RunUntilIsInclusiveAndAdvancesNow)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    for (Tick t : {10u, 20u, 30u})
        engine.schedule(t, EventKind::HostArrival, 0, t);
    engine.runUntil(20);
    EXPECT_EQ(argsOf(sink), (std::vector<std::uint64_t>{10, 20}));
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_EQ(engine.nextAt(), 30u);

    // An empty window still advances the clock.
    engine.runUntil(25);
    EXPECT_EQ(engine.now(), 25u);
    engine.run();
    EXPECT_EQ(engine.now(), 30u);
}

TEST(EventEngine, RunUntilExactBoundaryFiresTheBoundaryEvent)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(100, EventKind::GcTail, 0, 0);
    engine.runUntil(99);
    EXPECT_EQ(sink.fired.size(), 0u);
    EXPECT_EQ(engine.now(), 99u);
    engine.runUntil(100); // inclusive: the tick-100 event fires
    EXPECT_EQ(sink.fired.size(), 1u);
    EXPECT_TRUE(engine.empty());
}

TEST(EventEngineDeathTest, NextAtOnEmptyPanics)
{
    EventEngine engine;
    EXPECT_DEATH(engine.nextAt(), "empty");
}

TEST(EventEngineDeathTest, StepOnEmptyPanics)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    EXPECT_DEATH(engine.step(), "empty");
}

TEST(EventEngineDeathTest, SchedulingInThePastPanics)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(100, EventKind::GcTail, 0, 0);
    engine.run();
    EXPECT_DEATH(engine.schedule(50, EventKind::GcTail, 0, 0), "past");
}

TEST(EventEngine, IdenticalScheduleIsDeterministic)
{
    // Two engines fed the same schedule dispatch identically.
    auto drive = [](std::vector<std::uint64_t> &order) {
        EventEngine engine;
        RecordingSink sink;
        engine.setSink(&sink);
        for (std::uint64_t i = 0; i < 32; ++i) {
            const Tick when = static_cast<Tick>((i * 7) % 11);
            engine.schedule(when, EventKind::FlashDone, 0, i);
        }
        engine.run();
        order = argsOf(sink);
    };
    std::vector<std::uint64_t> a, b;
    drive(a);
    drive(b);
    EXPECT_EQ(a, b);
}

TEST(EventEngine, ReserveDoesNotPerturbOrder)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.reserve(64);
    for (std::uint64_t i = 0; i < 16; ++i)
        engine.schedule(5, EventKind::GcTail, 0, i);
    engine.run();
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i < 16; ++i)
        expect.push_back(i);
    EXPECT_EQ(argsOf(sink), expect);
}

} // namespace
} // namespace zombie

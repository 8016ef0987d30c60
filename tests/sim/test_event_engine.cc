/**
 * @file
 * Tests for the typed deterministic event engine: tick ordering,
 * stable FIFO tie-breaking across the heap and the dispatch FIFO,
 * scheduling from the sink, runBefore's boundary semantics, and the
 * past-schedule guards — the properties same-seed byte-identity
 * rests on.
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
    engine.schedule(300, EventKind::FlashDone, 0, 3);
    engine.schedule(100, EventKind::FlashDone, 0, 1);
    engine.schedule(200, EventKind::FlashDone, 0, 2);
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
            engine.schedule(now, EventKind::FlashDone, 0, 2);
    };
    engine.schedule(10, EventKind::FlashDone, 0, 0);
    engine.schedule(10, EventKind::FlashDone, 0, 1);
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
            engine.schedule(now + 5, EventKind::FlashDone, 0, 0);
    };
    engine.schedule(0, EventKind::FlashDone, 0, 0);
    engine.run();
    std::vector<Tick> when;
    for (const auto &f : sink.fired)
        when.push_back(f.when);
    EXPECT_EQ(when, (std::vector<Tick>{0, 5, 10, 15}));
    EXPECT_TRUE(engine.empty());
}

TEST(EventEngine, FifoAndHeapInterleaveInScheduleOrder)
{
    // Same-tick events alternate between the FIFO and the heap; the
    // one sequence counter orders them as one heap would.
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    for (std::uint64_t i = 0; i < 8; ++i) {
        if (i % 2 == 0)
            engine.scheduleFifo(40, EventKind::DispatchDone, 0, i);
        else
            engine.schedule(40, EventKind::FlashDone, 0, i);
    }
    engine.run();
    EXPECT_EQ(argsOf(sink),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventEngine, RunBeforeFiresEarlierEventsAndSetsNow)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.scheduleFifo(10, EventKind::DispatchDone, 0, 10);
    engine.schedule(19, EventKind::FlashDone, 0, 19);
    engine.scheduleFifo(20, EventKind::DispatchDone, 0, 20);
    engine.schedule(20, EventKind::FlashDone, 0, 21);
    engine.schedule(30, EventKind::StatsSample, 0, 30);

    engine.runBefore(20);
    EXPECT_EQ(argsOf(sink), (std::vector<std::uint64_t>{10, 19}));
    EXPECT_EQ(engine.now(), 20u);

    engine.run();
    EXPECT_EQ(argsOf(sink),
              (std::vector<std::uint64_t>{10, 19, 20, 21, 30}));
    EXPECT_EQ(engine.now(), 30u);
}

TEST(EventEngineDeathTest, SchedulingInThePastPanics)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(100, EventKind::FlashDone, 0, 0);
    engine.run();
    EXPECT_DEATH(engine.schedule(50, EventKind::FlashDone, 0, 0), "past");
}

TEST(EventEngineDeathTest, RunBeforeIntoThePastPanics)
{
    EventEngine engine;
    RecordingSink sink;
    engine.setSink(&sink);
    engine.schedule(100, EventKind::FlashDone, 0, 0);
    engine.run();
    EXPECT_DEATH(engine.runBefore(50), "past");
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
        engine.schedule(5, EventKind::FlashDone, 0, i);
    engine.run();
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i < 16; ++i)
        expect.push_back(i);
    EXPECT_EQ(argsOf(sink), expect);
}

} // namespace
} // namespace zombie

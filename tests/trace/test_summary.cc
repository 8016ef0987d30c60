/**
 * @file
 * Tests for the trace summarizer on hand-crafted record streams.
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/summary.hh"

namespace zombie
{
namespace
{

TraceRecord
rec(Tick at, OpType op, Lpn lpn, std::uint64_t vid)
{
    TraceRecord r;
    r.arrival = at;
    r.op = op;
    r.lpn = lpn;
    r.valueId = vid;
    r.fp = Fingerprint::fromValueId(vid);
    return r;
}

TEST(TraceSummary, EmptyTrace)
{
    const TraceSummary s = summarizeTrace({});
    EXPECT_EQ(s.total(), 0u);
    EXPECT_DOUBLE_EQ(s.writeRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.uniqueWriteValueFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.uniqueReadValueFraction(), 0.0);
}

TEST(TraceSummary, CountsOpsAndDistincts)
{
    const TraceSummary s = summarizeTrace({
        rec(10, OpType::Write, 0, 100),
        rec(20, OpType::Write, 1, 100), // duplicate content
        rec(30, OpType::Write, 2, 200),
        rec(40, OpType::Read, 0, 100),
        rec(50, OpType::Read, 2, 200),
        rec(60, OpType::Read, 0, 100), // repeat read value
    });
    EXPECT_EQ(s.writes, 3u);
    EXPECT_EQ(s.reads, 3u);
    EXPECT_EQ(s.distinctWriteValues, 2u);
    EXPECT_EQ(s.distinctReadValues, 2u);
    EXPECT_EQ(s.distinctLpns, 3u);
    EXPECT_DOUBLE_EQ(s.writeRatio(), 0.5);
    EXPECT_NEAR(s.uniqueWriteValueFraction(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.uniqueReadValueFraction(), 2.0 / 3.0, 1e-12);
}

TEST(TraceSummary, TracksArrivalWindow)
{
    const TraceSummary s = summarizeTrace({
        rec(42, OpType::Write, 0, 1),
        rec(99, OpType::Read, 0, 1),
    });
    EXPECT_EQ(s.firstArrival, 42u);
    EXPECT_EQ(s.lastArrival, 99u);
}

TEST(TraceSummary, ReadAndWriteValueSetsAreIndependent)
{
    // Reading a value never makes it "written".
    const TraceSummary s = summarizeTrace({
        rec(1, OpType::Write, 0, 7),
        rec(2, OpType::Read, 0, 7),
        rec(3, OpType::Read, 0, 7),
    });
    EXPECT_EQ(s.distinctWriteValues, 1u);
    EXPECT_EQ(s.distinctReadValues, 1u);
    EXPECT_DOUBLE_EQ(s.uniqueWriteValueFraction(), 1.0);
    EXPECT_DOUBLE_EQ(s.uniqueReadValueFraction(), 0.5);
}

TEST(TraceSummary, SetsSwitchedOffLeaveOnlyTheirCounts)
{
    // A summarizer told to keep no LPN set (or no value sets)
    // leaves that count 0 and every other field as the full one.
    const std::vector<TraceRecord> trace = {
        rec(10, OpType::Write, 0, 100), rec(20, OpType::Write, 1, 100),
        rec(30, OpType::Read, 0, 100), rec(40, OpType::Write, 2, 200),
    };
    const TraceSummary full = summarizeTrace(trace);
    TraceSummarizer no_lpns(true, false);
    TraceSummarizer no_values(false, true);
    for (const TraceRecord &r : trace) {
        no_lpns.observe(r);
        no_values.observe(r);
    }
    for (const TraceSummary &s : {no_lpns.finish(), no_values.finish()}) {
        EXPECT_EQ(s.reads, full.reads);
        EXPECT_EQ(s.writes, full.writes);
        EXPECT_EQ(s.firstArrival, full.firstArrival);
        EXPECT_EQ(s.lastArrival, full.lastArrival);
    }
    EXPECT_EQ(no_lpns.finish().distinctLpns, 0u);
    EXPECT_EQ(no_lpns.finish().distinctWriteValues,
              full.distinctWriteValues);
    EXPECT_EQ(no_lpns.finish().distinctReadValues,
              full.distinctReadValues);
    EXPECT_EQ(no_values.finish().distinctLpns, full.distinctLpns);
    EXPECT_EQ(no_values.finish().distinctWriteValues, 0u);
    EXPECT_EQ(no_values.finish().distinctReadValues, 0u);
}

} // namespace
} // namespace zombie

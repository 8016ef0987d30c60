/**
 * @file
 * Tests for the experiment-key table (sim/experiment.hh): the table's
 * defaults agree with ExperimentOptions{}, each key sets exactly its
 * own field, malformed values are fatal and unknown keys panic.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace zombie
{
namespace
{

/** argv builder for ArgParser::parse(). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : storage(std::move(args))
    {
        for (auto &s : storage)
            pointers.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers.size()); }
    char **argv() { return pointers.data(); }

  private:
    std::vector<std::string> storage;
    std::vector<char *> pointers;
};

/** The ExperimentOptions fields on which @p a and @p b differ. */
std::vector<std::string>
changedFields(const ExperimentOptions &a, const ExperimentOptions &b)
{
    std::vector<std::string> out;
    const auto check = [&out](bool same, const char *field) {
        if (!same)
            out.push_back(field);
    };
    check(a.requests == b.requests, "requests");
    check(a.seed == b.seed, "seed");
    check(a.day == b.day, "day");
    check(a.poolCapacity == b.poolCapacity, "poolCapacity");
    check(a.gcPolicy == b.gcPolicy, "gcPolicy");
    check(a.queueDepth == b.queueDepth, "queueDepth");
    check(a.op == b.op, "op");
    check(a.tenants == b.tenants, "tenants");
    check(a.arbiter == b.arbiter, "arbiter");
    check(a.prefetchBatch == b.prefetchBatch, "prefetchBatch");
    check(a.dvpScope == b.dvpScope, "dvpScope");
    check(a.statsInterval == b.statsInterval, "statsInterval");
    check(a.traceLimit == b.traceLimit, "traceLimit");
    check(a.statsCsv == b.statsCsv, "statsCsv");
    check(a.statsJson == b.statsJson, "statsJson");
    check(a.traceOut == b.traceOut, "traceOut");
    check(a.statsDump == b.statsDump, "statsDump");
    return out;
}

/** A non-default value for every key with a field. */
struct FieldCase
{
    const char *key;
    const char *value;
    const char *field;
};

const FieldCase kFieldCases[] = {
    {"day", "3", "day"},
    {"requests", "1234", "requests"},
    {"seed", "7", "seed"},
    {"queue-depth", "32", "queueDepth"},
    {"gc", "greedy", "gcPolicy"},
    {"pool", "5000", "poolCapacity"},
    {"pool-frac", "0.5", "poolCapacity"},
    {"op", "0.5", "op"},
    {"tenants", "2", "tenants"},
    {"arbiter", "wrr:1,2", "arbiter"},
    {"dvp-scope", "partitioned", "dvpScope"},
    {"prefetch", "0", "prefetchBatch"},
    {"stats-interval", "100", "statsInterval"},
    {"stats-csv", "s.csv", "statsCsv"},
    {"stats-json", "s.json", "statsJson"},
    {"trace-out", "t.json", "traceOut"},
    {"span-limit", "10", "traceLimit"},
    {"dump-stats", "d.txt", "statsDump"},
};

TEST(ExperimentKeys, TableDefaultsMatchTheStruct)
{
    for (const ExperimentKey &key : experimentKeys()) {
        if (!key.def || !key.set)
            continue;
        ExperimentOptions opts;
        EXPECT_EQ(key.set(opts, key.def), "") << "--" << key.name;
        EXPECT_EQ(changedFields(opts, ExperimentOptions{}),
                  std::vector<std::string>{})
            << "--" << key.name << " default '" << key.def << "'";
    }
}

TEST(ExperimentKeys, EachValueChangesExactlyItsField)
{
    for (const FieldCase &c : kFieldCases) {
        ExperimentOptions opts;
        EXPECT_EQ(experimentKey(c.key).set(opts, c.value), "")
            << "--" << c.key;
        EXPECT_EQ(changedFields(opts, ExperimentOptions{}),
                  std::vector<std::string>{c.field})
            << "--" << c.key << " " << c.value;
    }
    // A new row needs a case here.
    for (const ExperimentKey &key : experimentKeys()) {
        if (!key.set)
            continue;
        bool covered = false;
        for (const FieldCase &c : kFieldCases)
            covered = covered || std::string(c.key) == key.name;
        EXPECT_TRUE(covered) << "no field case for --" << key.name;
    }
}

TEST(ExperimentKeys, OptionsComeFromRegisteredKeysOnly)
{
    ArgParser args("t");
    addExperimentKeys(args, {{"requests", "100"},
                             {"pool-frac", "0.5"},
                             {"queue-depth"},
                             {"jobs"}});
    Argv a({"prog", "--queue-depth", "8", "--requests=2000"});
    args.parse(a.argc(), a.argv());
    const ExperimentOptions opts = experimentOptions(args);
    EXPECT_EQ(opts.requests, 2000u);
    EXPECT_EQ(opts.queueDepth, 8u);
    // pool-frac scales the trace length given on the command line.
    EXPECT_EQ(opts.poolCapacity, 1000u);
    EXPECT_EQ(opts.seed, ExperimentOptions{}.seed);
    EXPECT_EQ(args.getString("jobs"), "1");
}

/** experimentOptions() over every table key with @p flag set. */
void
parseWith(const std::string &flag, const std::string &value)
{
    ArgParser args("t");
    addExperimentKeys(args, {{flag.c_str(), experimentKey(flag).def
                                                ? nullptr
                                                : "1"}});
    Argv a({"prog", "--" + flag, value});
    args.parse(a.argc(), a.argv());
    (void)experimentOptions(args);
}

TEST(ExperimentKeysDeath, MalformedValuesAreFatal)
{
    const auto bad = testing::ExitedWithCode(1);
    EXPECT_EXIT(parseWith("requests", "1e6"), bad, "bad number");
    EXPECT_EXIT(parseWith("requests", "2000x"), bad, "bad number");
    EXPECT_EXIT(parseWith("pool", "-1"), bad, "bad number");
    EXPECT_EXIT(parseWith("queue-depth", "4294967297"), bad,
                "bad number '4294967297'");
    EXPECT_EXIT(parseWith("tenants", "4294967297"), bad, "bad number");
    EXPECT_EXIT(parseWith("tenants", "0"), bad, "bad number '0'");
    EXPECT_EXIT(parseWith("pool-frac", "-1"), bad, "bad number");
    EXPECT_EXIT(parseWith("op", "nan"), bad, "bad number");
    EXPECT_EXIT(parseWith("stats-interval", "-5"), bad, "bad number");
    EXPECT_EXIT(parseWith("day", "0"), bad, "bad number");
    EXPECT_EXIT(parseWith("gc", "tidy"), bad, "unknown gc policy");
    EXPECT_EXIT(parseWith("dvp-scope", "wide"), bad,
                "unknown DVP scope");
    EXPECT_EXIT(parseWith("arbiter", "fifo"), bad, "unknown arbiter");
}

TEST(ExperimentKeysDeath, RegisteringAnUnknownKeyPanics)
{
    ArgParser args("t");
    EXPECT_DEATH(addExperimentKeys(args, {{"speed"}}),
                 "no experiment key --speed");
    // Defaults live in exactly one place: the table, or the program
    // for the keys that have none there.
    EXPECT_DEATH(addExperimentKeys(args, {{"seed", "7"}}),
                 "table-wide default");
    EXPECT_DEATH(addExperimentKeys(args, {{"requests"}}),
                 "needs a program default");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Tests for the CLI argument parser.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/args.hh"

namespace zombie
{
namespace
{

/** argv builder for parse(). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage(std::move(args))
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

ArgParser
makeParser()
{
    ArgParser p("test program");
    p.addOption("requests", "1000", "number of requests");
    p.addOption("name", "mail", "workload name");
    p.addOption("rate", "1.5", "some rate");
    p.addFlag("verbose", "chatty output");
    return p;
}

TEST(ArgParser, DefaultsApplyWhenUnset)
{
    ArgParser p = makeParser();
    Argv a({"prog"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getUint("requests"), 1000u);
    EXPECT_EQ(p.getString("name"), "mail");
    EXPECT_DOUBLE_EQ(p.getDouble("rate"), 1.5);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--requests", "42", "--name", "web"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getUint("requests"), 42u);
    EXPECT_EQ(p.getString("name"), "web");
}

TEST(ArgParser, EqualsSeparatedValues)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--requests=7", "--rate=2.25"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("requests"), 7);
    EXPECT_DOUBLE_EQ(p.getDouble("rate"), 2.25);
}

TEST(ArgParser, FlagSetsTrue)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--verbose"});
    p.parse(a.argc(), a.argv());
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(ArgParser, NegativeIntegers)
{
    ArgParser p("t");
    p.addOption("delta", "0", "signed value");
    Argv a({"prog", "--delta", "-5"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getInt("delta"), -5);
}

TEST(ArgParser, BenchmarkValuesKeepParsing)
{
    // The values the benchmark driver passes: integers and a
    // fractional duration.
    ArgParser p("t");
    p.addOption("seed", "42", "seed");
    p.addOption("seconds", "10", "duration");
    p.addOption("trace", "0", "traced run");
    EXPECT_EQ(p.getUint("seed"), 42u);
    EXPECT_DOUBLE_EQ(p.getDouble("seconds"), 10.0);
    Argv a({"prog", "--seed", "7", "--seconds", "2.5", "--trace=1"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getUint("seed"), 7u);
    EXPECT_DOUBLE_EQ(p.getDouble("seconds"), 2.5);
    EXPECT_EQ(p.getUint("trace"), 1u);
}

TEST(ArgParser, ParseNumberNarrowsToRange)
{
    std::uint32_t depth = 5;
    EXPECT_EQ(parseNumber<std::uint32_t>("4294967295", depth), "");
    EXPECT_EQ(depth, 4294967295u);
    EXPECT_EQ(parseNumber<std::uint32_t>("4294967296", depth),
              "bad number '4294967296' (want an unsigned integer in "
              "[0, 4294967295])");
    EXPECT_EQ(depth, 4294967295u); // untouched on error
    double frac = 0.0;
    EXPECT_EQ(parseNumber("0.25", frac, 0.0, 1.0), "");
    EXPECT_DOUBLE_EQ(frac, 0.25);
    EXPECT_EQ(parseNumber("-1", frac, 0.0, 1.0),
              "bad number '-1' (want a number in [0, 1])");
    EXPECT_NE(parseNumber<double>("inf", frac), "");
    EXPECT_NE(parseNumber<double>("", frac), "");
}

TEST(ArgParser, ChoiceAndRegistrationQueries)
{
    ArgParser p = makeParser();
    p.addOption("format", "text", "text|binary");
    Argv a({"prog", "--format", "binary"});
    p.parse(a.argc(), a.argv());
    EXPECT_EQ(p.getChoice("format", {"text", "binary"}), "binary");
    EXPECT_TRUE(p.has("format"));
    EXPECT_FALSE(p.has("jobs"));
    // Options left at their defaults were not given.
    p.rejectGiven({"requests", "verbose"}, "is not allowed here");
}

TEST(ArgParser, UsageListsOptionsAndHelp)
{
    ArgParser p = makeParser();
    const std::string usage = p.usage();
    EXPECT_NE(usage.find("--requests"), std::string::npos);
    EXPECT_NE(usage.find("number of requests"), std::string::npos);
    EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(ArgParserDeath, UnknownOptionIsFatal)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--nope"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "unknown option");
}

TEST(ArgParserDeath, MissingValueIsFatal)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--requests"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "needs a value");
}

TEST(ArgParserDeath, PositionalArgumentIsFatal)
{
    ArgParser p = makeParser();
    Argv a({"prog", "stray"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "positional");
}

TEST(ArgParserDeath, NonNumericValueIsFatal)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--requests", "abc"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getUint("requests"),
                testing::ExitedWithCode(1), "unsigned integer");
}

TEST(ArgParserDeath, NumbersMustBeWholeAndInRange)
{
    using U64 = std::numeric_limits<std::uint64_t>;
    using Dbl = std::numeric_limits<double>;
    const auto bad = testing::ExitedWithCode(1);
    const auto get_uint = [](const std::string &value,
                             std::uint64_t hi = U64::max()) {
        ArgParser p = makeParser();
        Argv a({"prog", "--requests", value});
        p.parse(a.argc(), a.argv());
        (void)p.getUint("requests", 0, hi);
    };
    EXPECT_EXIT(get_uint("1e6"), bad, "bad number '1e6'");
    EXPECT_EXIT(get_uint("2000x"), bad, "bad number '2000x'");
    EXPECT_EXIT(get_uint("-1"), bad, "unsigned integer");
    EXPECT_EXIT(get_uint("18446744073709551616"), bad, "bad number");
    EXPECT_EXIT(get_uint(" 7"), bad, "bad number");
    EXPECT_EXIT(get_uint("4294967296", 4294967295u), bad,
                "bad number '4294967296'");
    const auto get_double = [](const std::string &value,
                               double lo = Dbl::lowest(),
                               double hi = Dbl::max()) {
        ArgParser p = makeParser();
        Argv a({"prog", "--rate", value});
        p.parse(a.argc(), a.argv());
        (void)p.getDouble("rate", lo, hi);
    };
    EXPECT_EXIT(get_double("nan"), bad, "bad number 'nan'");
    EXPECT_EXIT(get_double("1.5x"), bad, "bad number");
    EXPECT_EXIT(get_double("-1", 0.0, 1.0), bad,
                "bad number '-1' \\(want a number in \\[0, 1\\]\\)");
    const auto get_int = [](const std::string &value) {
        ArgParser p = makeParser();
        Argv a({"prog", "--requests", value});
        p.parse(a.argc(), a.argv());
        (void)p.getInt("requests");
    };
    EXPECT_EXIT(get_int("5.0"), bad, "an integer");
}

TEST(ArgParserDeath, ChoiceOutsideTheListIsFatal)
{
    ArgParser p("t");
    p.addOption("format", "text", "text|binary");
    Argv a({"prog", "--format", "bin"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT((void)p.getChoice("format", {"text", "binary"}),
                testing::ExitedWithCode(1),
                "--format: 'bin' is not one of text\\|binary");
}

TEST(ArgParserDeath, RejectGivenNamesTheGivenOption)
{
    ArgParser p("t");
    p.addOption("grid", "", "sweep");
    p.addOption("stats-csv", "", "series");
    Argv a({"prog", "--grid", "depth=1", "--stats-csv", "s.csv"});
    p.parse(a.argc(), a.argv());
    EXPECT_EXIT(p.rejectGiven({"stats-csv"}, "is a per-run output"),
                testing::ExitedWithCode(1),
                "--stats-csv is a per-run output");
}

TEST(ArgParserDeath, FlagWithValueIsFatal)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--verbose=yes"});
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(1), "does not take a value");
}

TEST(ArgParserDeath, DuplicateRegistrationPanics)
{
    ArgParser p("t");
    p.addOption("x", "1", "first");
    EXPECT_DEATH(p.addOption("x", "2", "second"), "duplicate");
}

TEST(ArgParserDeath, HelpExitsZero)
{
    ArgParser p = makeParser();
    Argv a({"prog", "--help"});
    // Usage text goes to stdout (death tests match stderr), so only
    // the exit code is asserted here.
    EXPECT_EXIT(p.parse(a.argc(), a.argv()),
                testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Tests for the CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "temp_path.hh"
#include "util/csv.hh"

namespace zombie
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

class CsvTest : public testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return test::uniqueTempPath("csv_test.csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        CsvWriter csv(tempPath(), {"a", "b"});
        csv.addRow({"1", "2"});
        csv.addRow({"3", "4"});
        csv.close();
    }
    EXPECT_EQ(slurp(tempPath()), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, QuotesCellsWithCommas)
{
    {
        CsvWriter csv(tempPath(), {"x"});
        csv.addRow({"hello, world"});
        csv.close();
    }
    EXPECT_EQ(slurp(tempPath()), "x\n\"hello, world\"\n");
}

TEST_F(CsvTest, EscapesEmbeddedQuotes)
{
    {
        CsvWriter csv(tempPath(), {"x"});
        csv.addRow({"say \"hi\""});
        csv.close();
    }
    EXPECT_EQ(slurp(tempPath()), "x\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, QuotesNewlines)
{
    {
        CsvWriter csv(tempPath(), {"x"});
        csv.addRow({"two\nlines"});
        csv.close();
    }
    EXPECT_EQ(slurp(tempPath()), "x\n\"two\nlines\"\n");
}

TEST_F(CsvTest, PathAccessor)
{
    CsvWriter csv(tempPath(), {"x"});
    EXPECT_EQ(csv.path(), tempPath());
}

TEST_F(CsvTest, ArityMismatchPanics)
{
    CsvWriter csv(tempPath(), {"a", "b"});
    EXPECT_DEATH(csv.addRow({"only-one"}), "arity");
}

TEST(CsvDeath, UnwritablePathIsFatal)
{
    EXPECT_EXIT(
        { CsvWriter csv("/nonexistent-dir/out.csv", {"a"}); },
        testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace zombie

/**
 * @file
 * Unit tests for the table/CSV writer and the sparkline renderer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "stats/table.h"

namespace cidre::stats {
namespace {

TEST(Table, PrintsAlignedColumns)
{
    Table table({"policy", "overhead"});
    table.addRow({"cidre", "27.5"});
    table.addRow({"faascache", "43.2"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("policy"), std::string::npos);
    EXPECT_NE(text.find("faascache"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, NumericRowHelper)
{
    Table table({"name", "a", "b"});
    table.addRow("x", {1.234, 5.678}, 1);
    EXPECT_EQ(table.cell(0, 1), "1.2");
    EXPECT_EQ(table.cell(0, 2), "5.7");
}

TEST(Table, RejectsMismatchedRow)
{
    Table table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(table.addRow("x", {1.0, 2.0}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders)
{
    EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, CsvEscaping)
{
    Table table({"name", "note"});
    table.addRow({"a,b", "say \"hi\""});
    std::ostringstream out;
    table.writeCsv(out);
    EXPECT_EQ(out.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, FormatFixed)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
}

TEST(Table, SparklineShape)
{
    // One value per character, each on its own level: the largest value
    // draws the full block and nothing bleeds into a neighbour.
    const std::vector<double> ramp = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(sparkline(ramp, 8), "▁▂▃▄▅▆▇█");
    EXPECT_EQ(sparkline({4, 0, 0, 0}, 64), "█▁▁▁");
    EXPECT_EQ(sparkline({0, 0}, 64), "▁▁");
    EXPECT_EQ(sparkline({-3, 6}, 64), "▁█");
    EXPECT_EQ(sparkline({}, 64), "");
    EXPECT_EQ(sparkline(ramp, 0), "");
}

TEST(Table, SparklineDownsamples)
{
    // 100 values into 10 characters: each character is the maximum of
    // its own run of ten, so one spike lights exactly one character.
    std::vector<double> values(100, 1.0);
    values[55] = 8.0;
    // 1/8 of the top lands on the lowest level.
    EXPECT_EQ(sparkline(values, 10), "▁▁▁▁▁█▁▁▁▁");
    // Runs of uneven length still cover every value exactly once.
    EXPECT_EQ(sparkline({8, 0, 0, 0, 0, 8, 0}, 3), "█▁█");
}

} // namespace
} // namespace cidre::stats

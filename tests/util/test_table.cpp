#include "pgf/util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pgf/util/check.hpp"
#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

TEST(FormatDouble, FixedPrecision) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(3.0, 2), "3.00");
    EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatDouble, TrimmedRemovesTrailingZeros) {
    EXPECT_EQ(format_double(3.10, 4, true), "3.1");
    EXPECT_EQ(format_double(3.0, 4, true), "3");
    EXPECT_EQ(format_double(0.25, 6, true), "0.25");
}

TEST(TextTable, AlignsColumns) {
    TextTable t({"name", "value"});
    t.add("dm", 1);
    t.add("hilbert", 123);
    std::string s = t.str();
    std::istringstream in(s);
    std::string header, rule, row1, row2;
    std::getline(in, header);
    std::getline(in, rule);
    std::getline(in, row1);
    std::getline(in, row2);
    EXPECT_EQ(header.size(), row1.size());
    EXPECT_EQ(row1.size(), row2.size());
    EXPECT_EQ(rule.find_first_not_of('-'), std::string::npos);
}

TEST(TextTable, AddMixedCellTypes) {
    TextTable t({"a", "b", "c"});
    t.add("x", 42, 2.5);
    EXPECT_EQ(t.rows(), 1u);
    std::string s = t.str();
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("2.50"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, HeaderlessTableRenders) {
    TextTable t;
    t.add_row({"1", "2"});
    std::string s = t.str();
    EXPECT_EQ(s, "1  2\n");
}

TEST(TextTable, CsvRoundTrip) {
    auto path = test::unique_temp_path("pgf_table_test", ".csv");
    TextTable t({"m", "response"});
    t.add(4, 10.5);
    t.add(8, 5.25);
    ASSERT_TRUE(t.write_csv(path.string()));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "m,response");
    std::getline(in, line);
    EXPECT_EQ(line, "4,10.50");
    std::filesystem::remove(path);
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
    auto path = test::unique_temp_path("pgf_table_esc", ".csv");
    TextTable t({"note"});
    t.add_row({"a,b \"quoted\""});
    ASSERT_TRUE(t.write_csv(path.string()));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    std::getline(in, line);
    EXPECT_EQ(line, "\"a,b \"\"quoted\"\"\"");
    std::filesystem::remove(path);
}

TEST(TextTable, CsvToUnwritablePathFails) {
    TextTable t({"x"});
    EXPECT_FALSE(t.write_csv("/nonexistent-dir/impossible.csv"));
}

TEST(CsvWriter, StreamsRows) {
    auto path = test::unique_temp_path("pgf_csvw_test", ".csv");
    {
        CsvWriter w(path.string(), {"a", "b"});
        w.write_row({1.0, 2.5});
        w.write_row(std::vector<std::string>{"x", "y"});
    }
    std::ifstream in(path);
    std::string l1, l2, l3;
    std::getline(in, l1);
    std::getline(in, l2);
    std::getline(in, l3);
    EXPECT_EQ(l1, "a,b");
    EXPECT_EQ(l2, "1,2.5");
    EXPECT_EQ(l3, "x,y");
    std::filesystem::remove(path);
}

TEST(CsvWriter, ThrowsOnUnopenablePath) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir/impossible.csv", {"x"}),
                 CheckError);
}

}  // namespace
}  // namespace pgf

#include "pgf/util/points_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "pgf/util/check.hpp"
#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

class PointsIoTest : public ::testing::Test {
protected:
    std::filesystem::path path_ =
        test::unique_temp_path("pgf_points_io_test", ".csv");

    void TearDown() override { std::filesystem::remove(path_); }

    void write_file(const std::string& content) {
        std::ofstream out(path_);
        out << content;
    }
};

TEST_F(PointsIoTest, RoundTrip) {
    std::vector<std::vector<double>> rows{
        {1.0, 2.0, 3.0}, {-4.5, 0.0, 1e6}, {0.001, 7.0, -8.25}};
    write_csv_points(path_.string(), rows);
    auto back = read_csv_points(path_.string());
    ASSERT_EQ(back.size(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(back[r].size(), 3u);
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_DOUBLE_EQ(back[r][c], rows[r][c]);
        }
    }
}

TEST_F(PointsIoTest, SkipsBlanksCommentsAndHeader) {
    write_file(
        "x, y\n"
        "# a comment\n"
        "\n"
        "1.5, 2.5\n"
        "  3.0 ,4.0  \n");
    auto rows = read_csv_points(path_.string());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0][0], 1.5);
    EXPECT_DOUBLE_EQ(rows[1][1], 4.0);
}

TEST_F(PointsIoTest, RejectsNonNumericDataRow) {
    write_file("1,2\nfoo,bar\n");
    EXPECT_THROW(read_csv_points(path_.string()), CheckError);
}

TEST_F(PointsIoTest, RejectsRaggedRows) {
    write_file("1,2\n3,4,5\n");
    EXPECT_THROW(read_csv_points(path_.string()), CheckError);
}

TEST_F(PointsIoTest, RejectsMissingFile) {
    EXPECT_THROW(read_csv_points("/nonexistent/points.csv"), CheckError);
    EXPECT_THROW(write_csv_points("/nonexistent/points.csv", {}), CheckError);
}

TEST_F(PointsIoTest, AlternateDelimiter) {
    write_file("1;2;3\n4;5;6\n");
    auto rows = read_csv_points(path_.string(), ';');
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[1][2], 6.0);
}

TEST_F(PointsIoTest, EmptyFileGivesNoRows) {
    write_file("# only a comment\n");
    EXPECT_TRUE(read_csv_points(path_.string()).empty());
}

TEST_F(PointsIoTest, SingleColumn) {
    write_file("1\n2\n3\n");
    auto rows = read_csv_points(path_.string());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].size(), 1u);
}

TEST_F(PointsIoTest, ScientificNotationAndNegatives) {
    write_file("-1e-3,+2.5E2\n");
    auto rows = read_csv_points(path_.string());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_DOUBLE_EQ(rows[0][0], -0.001);
    EXPECT_DOUBLE_EQ(rows[0][1], 250.0);
}

}  // namespace
}  // namespace pgf

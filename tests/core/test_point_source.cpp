// PointSource corruption paths: the flat binary point format must turn
// every malformed input — truncation, wrong magic, wrong dimensionality,
// a lying record count — into a typed CheckError instead of silently
// streaming garbage into a build.
#include "pgf/core/point_source.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

class BinaryPointsTest : public ::testing::Test {
protected:
    std::filesystem::path path_ =
        std::filesystem::temp_directory_path() /
        ("pgf_binary_points_test_" + std::string(::testing::UnitTest::
                                                     GetInstance()
                                                         ->current_test_info()
                                                         ->name()) +
         ".bin");

    void TearDown() override { std::filesystem::remove(path_); }

    std::vector<Point<2>> sample(std::size_t n) {
        Rng rng(11);
        std::vector<Point<2>> pts(n);
        for (auto& p : pts) {
            p[0] = rng.uniform();
            p[1] = rng.uniform();
        }
        return pts;
    }

    void flip_byte(std::uint64_t offset, char mask) {
        std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(offset));
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ mask);
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(&b, 1);
    }
};

TEST_F(BinaryPointsTest, RoundTripStreamsInBlocks) {
    const auto pts = sample(103);
    write_binary_points<2>(path_, pts);

    BinaryFilePointSource<2> src(path_);
    EXPECT_EQ(src.remaining(), pts.size());
    std::vector<Point<2>> got;
    std::vector<Point<2>> block(16);
    for (;;) {
        const std::size_t n =
            src.next(std::span<Point<2>>(block.data(), block.size()));
        if (n == 0) break;
        got.insert(got.end(), block.begin(),
                   block.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(got.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(got[i], pts[i]) << i;
    }
    EXPECT_EQ(src.remaining(), 0u);
}

TEST_F(BinaryPointsTest, MissingFileAndBadMagicAreTypedErrors) {
    EXPECT_THROW(BinaryFilePointSource<2>("/nonexistent-dir/pts.bin"),
                 IoError);
    {
        std::ofstream out(path_, std::ios::binary);
        out << "these are not the points you are looking for";
    }
    EXPECT_THROW(BinaryFilePointSource<2>{path_}, CheckError);
}

TEST_F(BinaryPointsTest, WrongDimensionalityRejected) {
    Rng rng(3);
    std::vector<Point<3>> pts(5);
    for (auto& p : pts) {
        for (std::size_t i = 0; i < 3; ++i) p[i] = rng.uniform();
    }
    write_binary_points<3>(path_, pts);
    EXPECT_THROW(BinaryFilePointSource<2>{path_}, CheckError);
    EXPECT_NO_THROW(BinaryFilePointSource<3>{path_});
}

TEST_F(BinaryPointsTest, TruncatedHeaderRejected) {
    // Magic alone, then magic + dims: both end inside the 24-byte header.
    for (const std::uint64_t keep : {8u, 16u, 23u}) {
        write_binary_points<2>(path_, sample(4));
        std::filesystem::resize_file(path_, keep);
        EXPECT_THROW(BinaryFilePointSource<2>{path_}, CheckError)
            << "kept " << keep << " bytes";
    }
}

TEST_F(BinaryPointsTest, TruncatedBodyFailsAtReadTime) {
    const auto pts = sample(40);
    write_binary_points<2>(path_, pts);
    // Chop mid-way through the last point: the header still promises 40.
    const std::uint64_t full = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, full - 5);

    BinaryFilePointSource<2> src(path_);
    EXPECT_EQ(src.remaining(), pts.size());
    std::vector<Point<2>> block(64);
    EXPECT_THROW(src.next(std::span<Point<2>>(block.data(), block.size())),
                 CheckError);
}

TEST_F(BinaryPointsTest, FlippedCountByteCannotOverrun) {
    const auto pts = sample(12);
    write_binary_points<2>(path_, pts);
    // Flip a high byte of the count field (offset 16..23): the header now
    // promises ~2^40 points the body does not contain. Streaming must end
    // in a typed truncation error, never a silent short read or overrun.
    flip_byte(21, 0x01);
    BinaryFilePointSource<2> src(path_);
    EXPECT_GT(src.remaining(), pts.size());
    std::vector<Point<2>> block(256);
    EXPECT_THROW(
        {
            for (;;) {
                if (src.next(std::span<Point<2>>(block.data(),
                                                 block.size())) == 0) {
                    break;
                }
            }
        },
        CheckError);
}

TEST_F(BinaryPointsTest, EmptyFileRoundTrips) {
    write_binary_points<2>(path_, std::vector<Point<2>>{});
    BinaryFilePointSource<2> src(path_);
    EXPECT_EQ(src.remaining(), 0u);
    std::vector<Point<2>> block(4);
    EXPECT_EQ(src.next(std::span<Point<2>>(block.data(), block.size())), 0u);
}

}  // namespace
}  // namespace pgf

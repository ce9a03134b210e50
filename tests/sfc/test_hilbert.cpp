#include "pgf/sfc/hilbert.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>
#include <tuple>
#include <utility>

#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"

namespace pgf::sfc {
namespace {

/// Reference: Skilling's transform as a branchy loop over a runtime
/// dimension count, packed one bit at a time — the mapping the kernel
/// must reproduce bit for bit.
std::uint64_t reference_index(std::vector<std::uint32_t> x, unsigned bits) {
    const std::size_t n = x.size();
    const std::uint32_t m = 1u << (bits - 1);
    for (std::uint32_t q = m; q > 1; q >>= 1) {
        const std::uint32_t p = q - 1;
        for (std::size_t i = 0; i < n; ++i) {
            if (x[i] & q) {
                x[0] ^= p;
            } else {
                const std::uint32_t t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
    }
    for (std::size_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
    std::uint32_t t = 0;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
        if (x[n - 1] & q) t ^= q - 1;
    }
    for (std::size_t i = 0; i < n; ++i) x[i] ^= t;
    std::uint64_t index = 0;
    for (unsigned q = bits; q-- > 0;) {
        for (std::size_t i = 0; i < n; ++i) {
            index = (index << 1) | ((x[i] >> q) & 1u);
        }
    }
    return index;
}

/// Every cell of every cube with D * bits <= 16: the compile-time kernel
/// and the checked entry point both invert hilbert_coords.
template <std::size_t D>
void expect_kernel_round_trips() {
    for (unsigned bits = 1; D * bits <= 16 && bits <= 32; ++bits) {
        const std::uint64_t total = std::uint64_t{1} << (D * bits);
        for (std::uint64_t h = 0; h < total; ++h) {
            const std::vector<std::uint32_t> coords =
                hilbert_coords(h, static_cast<unsigned>(D), bits);
            std::array<std::uint32_t, D> cell;
            std::copy(coords.begin(), coords.end(), cell.begin());
            ASSERT_EQ(hilbert_index_unchecked<D>(cell, bits), h)
                << "D=" << D << " bits=" << bits;
            ASSERT_EQ(hilbert_index(coords, bits), h)
                << "D=" << D << " bits=" << bits;
        }
    }
}

/// 10^5 random cells at `bits`: both entry points equal the reference.
template <std::size_t D>
void expect_kernel_matches_reference(unsigned bits, std::uint64_t seed) {
    Rng rng(seed);
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    for (int k = 0; k < 100000; ++k) {
        std::array<std::uint32_t, D> cell;
        for (std::uint32_t& c : cell) {
            c = static_cast<std::uint32_t>(rng.next_u64() & mask);
        }
        const std::vector<std::uint32_t> coords(cell.begin(), cell.end());
        const std::uint64_t want = reference_index(coords, bits);
        ASSERT_EQ(hilbert_index_unchecked<D>(cell, bits), want)
            << "D=" << D << " bits=" << bits << " sample " << k;
        ASSERT_EQ(hilbert_index(coords, bits), want)
            << "D=" << D << " bits=" << bits << " sample " << k;
    }
}

std::uint64_t index_of(std::initializer_list<std::uint32_t> coords,
                       unsigned bits) {
    std::vector<std::uint32_t> c(coords);
    return hilbert_index(c, bits);
}

TEST(Hilbert, Order1TwoDimensionalCurve) {
    // The first-order 2-d Hilbert curve visits the four quadrant cells in a
    // U: every rank is distinct and consecutive ranks are unit neighbors.
    std::set<std::uint64_t> ranks;
    for (std::uint32_t x = 0; x < 2; ++x) {
        for (std::uint32_t y = 0; y < 2; ++y) {
            ranks.insert(index_of({x, y}, 1));
        }
    }
    EXPECT_EQ(ranks.size(), 4u);
    EXPECT_EQ(*ranks.begin(), 0u);
    EXPECT_EQ(*ranks.rbegin(), 3u);
}

TEST(Hilbert, StartsAtOrigin) {
    EXPECT_EQ(index_of({0, 0}, 4), 0u);
    EXPECT_EQ(index_of({0, 0, 0}, 3), 0u);
    EXPECT_EQ(index_of({0, 0, 0, 0}, 2), 0u);
}

// Bijectivity and the defining adjacency property, swept over dimensions
// and orders: consecutive Hilbert indices must map to cells that differ by
// exactly 1 in exactly one coordinate.
class HilbertProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(HilbertProperty, RoundTripIsIdentity) {
    auto [dims, bits] = GetParam();
    const std::uint64_t total = 1ULL << (dims * bits);
    for (std::uint64_t h = 0; h < total; ++h) {
        auto coords = hilbert_coords(h, dims, bits);
        ASSERT_EQ(hilbert_index(coords, bits), h) << "dims=" << dims
                                                  << " bits=" << bits;
    }
}

TEST_P(HilbertProperty, ConsecutiveRanksAreUnitNeighbors) {
    auto [dims, bits] = GetParam();
    const std::uint64_t total = 1ULL << (dims * bits);
    auto prev = hilbert_coords(0, dims, bits);
    for (std::uint64_t h = 1; h < total; ++h) {
        auto cur = hilbert_coords(h, dims, bits);
        unsigned changed = 0;
        unsigned l1 = 0;
        for (unsigned i = 0; i < dims; ++i) {
            auto d = static_cast<unsigned>(
                std::abs(static_cast<std::int64_t>(cur[i]) -
                         static_cast<std::int64_t>(prev[i])));
            if (d != 0) ++changed;
            l1 += d;
        }
        ASSERT_EQ(changed, 1u) << "rank " << h;
        ASSERT_EQ(l1, 1u) << "rank " << h;
        prev = cur;
    }
}

TEST_P(HilbertProperty, CoversEveryCellExactlyOnce) {
    auto [dims, bits] = GetParam();
    const std::uint64_t total = 1ULL << (dims * bits);
    std::set<std::vector<std::uint32_t>> cells;
    for (std::uint64_t h = 0; h < total; ++h) {
        cells.insert(hilbert_coords(h, dims, bits));
    }
    EXPECT_EQ(cells.size(), total);
}

INSTANTIATE_TEST_SUITE_P(
    DimsBitsSweep, HilbertProperty,
    ::testing::Values(std::tuple<unsigned, unsigned>{1, 4},
                      std::tuple<unsigned, unsigned>{2, 1},
                      std::tuple<unsigned, unsigned>{2, 2},
                      std::tuple<unsigned, unsigned>{2, 4},
                      std::tuple<unsigned, unsigned>{2, 6},
                      std::tuple<unsigned, unsigned>{3, 1},
                      std::tuple<unsigned, unsigned>{3, 2},
                      std::tuple<unsigned, unsigned>{3, 4},
                      std::tuple<unsigned, unsigned>{4, 2},
                      std::tuple<unsigned, unsigned>{4, 3},
                      std::tuple<unsigned, unsigned>{5, 2}),
    [](const auto& param_info) {
        return "d" + std::to_string(std::get<0>(param_info.param)) + "b" +
               std::to_string(std::get<1>(param_info.param));
    });

TEST(HilbertKernel, RoundTripsEveryCellUpTo16IndexBits) {
    expect_kernel_round_trips<1>();
    expect_kernel_round_trips<2>();
    expect_kernel_round_trips<3>();
    expect_kernel_round_trips<4>();
    expect_kernel_round_trips<5>();
}

TEST(HilbertKernel, MatchesReferenceOnRandomCells) {
    // bits = min(16, 64 / D), the external sort's default quantization.
    expect_kernel_matches_reference<1>(16, 1);
    expect_kernel_matches_reference<2>(16, 2);
    expect_kernel_matches_reference<3>(16, 3);
    expect_kernel_matches_reference<4>(16, 4);
    expect_kernel_matches_reference<5>(12, 5);
}

TEST(HilbertKernel, MatchesReferenceAtTheWidestKeys) {
    expect_kernel_matches_reference<1>(32, 6);
    expect_kernel_matches_reference<2>(32, 7);
    expect_kernel_matches_reference<3>(21, 8);
    expect_kernel_matches_reference<4>(16, 9);
}

TEST(Hilbert, RejectsOutOfRangeArguments) {
    std::vector<std::uint32_t> c{0, 0};
    EXPECT_THROW(hilbert_index(c, 0), CheckError);
    EXPECT_THROW(hilbert_index(c, 33), CheckError);
    std::vector<std::uint32_t> big{4, 0};
    EXPECT_THROW(hilbert_index(big, 2), CheckError);  // coord >= 2^bits
    std::vector<std::uint32_t> many(9, 0);
    EXPECT_THROW(hilbert_index(many, 8), CheckError);  // 72 bits > 64
    EXPECT_THROW(hilbert_coords(16, 2, 2), CheckError);  // index >= 2^4
}

TEST(Hilbert, LocalityBeatsRowMajorScan) {
    // Average |rank(a) - rank(b)| over all face-adjacent cell pairs should
    // be much smaller for Hilbert than for a row-major scan — the
    // clustering property HCAM relies on (paper Sec. 2.3 discussion).
    constexpr unsigned bits = 4;
    constexpr std::uint32_t n = 1u << bits;
    double hilbert_sum = 0.0, scan_sum = 0.0;
    std::size_t pairs = 0;
    for (std::uint32_t x = 0; x < n; ++x) {
        for (std::uint32_t y = 0; y + 1 < n; ++y) {
            std::vector<std::uint32_t> a{x, y}, b{x, y + 1};
            auto ha = hilbert_index(a, bits), hb = hilbert_index(b, bits);
            hilbert_sum += std::abs(static_cast<double>(ha) -
                                    static_cast<double>(hb));
            scan_sum += n;  // row-major distance of vertical neighbors
            ++pairs;
        }
    }
    EXPECT_LT(hilbert_sum / static_cast<double>(pairs),
              scan_sum / static_cast<double>(pairs));
}

TEST(BitsForShape, SmallestEnclosingCube) {
    std::vector<std::uint32_t> s1{16, 12, 8};
    EXPECT_EQ(bits_for_shape(s1), 4u);  // 16 fits in 2^4
    std::vector<std::uint32_t> s2{17, 2};
    EXPECT_EQ(bits_for_shape(s2), 5u);
    std::vector<std::uint32_t> s3{1, 1};
    EXPECT_EQ(bits_for_shape(s3), 1u);
    std::vector<std::uint32_t> s4{2};
    EXPECT_EQ(bits_for_shape(s4), 1u);
    std::vector<std::uint32_t> s5{3};
    EXPECT_EQ(bits_for_shape(s5), 2u);
}

}  // namespace
}  // namespace pgf::sfc

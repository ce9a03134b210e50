#include "pgf/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "pgf/util/check.hpp"
#include "pgf/util/stats.hpp"

namespace pgf {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
    // Reference values of the public-domain splitmix64 algorithm.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForEqualSeeds) {
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u32(), b.next_u32());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u32() == b.next_u32()) ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformDoubleInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
    Rng rng(11);
    OnlineStats s;
    for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform(-5.0, 17.5);
        ASSERT_GE(u, -5.0);
        ASSERT_LT(u, 17.5);
    }
}

TEST(Rng, BelowCoversAllResiduesUnbiased) {
    Rng rng(19);
    constexpr std::uint32_t kBound = 7;
    std::array<int, kBound> counts{};
    constexpr int kDraws = 70000;
    for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
    for (std::uint32_t r = 0; r < kBound; ++r) {
        EXPECT_NEAR(counts[r], kDraws / kBound, 500) << "residue " << r;
    }
}

TEST(Rng, BelowOneAlwaysZero) {
    Rng rng(23);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
    Rng rng(5);
    EXPECT_THROW(rng.below(0), CheckError);
}

TEST(Rng, UniformIntInclusiveBounds) {
    Rng rng(29);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.uniform_int(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng rng(31);
    EXPECT_EQ(rng.uniform_int(9, 9), 9);
    EXPECT_THROW(rng.uniform_int(10, 9), CheckError);
}

TEST(Rng, UniformIntLargeSpan) {
    Rng rng(37);
    std::int64_t lo = -5'000'000'000LL, hi = 5'000'000'000LL;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.uniform_int(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
    }
}

TEST(Rng, NormalMomentsMatch) {
    Rng rng(41);
    OnlineStats s;
    for (int i = 0; i < 200000; ++i) s.add(rng.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, NormalIsPortableAcrossInstances) {
    // Box-Muller from identical PCG streams must agree bit-for-bit.
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.normal(), b.normal());
    }
}

TEST(Rng, ExponentialMeanIsInverseRate) {
    Rng rng(43);
    OnlineStats s;
    for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, ExponentialRequiresPositiveRate) {
    Rng rng(47);
    EXPECT_THROW(rng.exponential(0.0), CheckError);
    EXPECT_THROW(rng.exponential(-1.0), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(53);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ShuffleUniformOverSmallPermutations) {
    // Chi-squared-style sanity: all 6 permutations of 3 items appear with
    // roughly equal frequency.
    Rng rng(59);
    std::map<std::array<int, 3>, int> counts;
    constexpr int kTrials = 60000;
    for (int t = 0; t < kTrials; ++t) {
        std::vector<int> v{0, 1, 2};
        rng.shuffle(v);
        ++counts[{v[0], v[1], v[2]}];
    }
    EXPECT_EQ(counts.size(), 6u);
    for (const auto& [perm, count] : counts) {
        EXPECT_NEAR(count, kTrials / 6, 600);
    }
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
    Rng rng(61);
    for (int t = 0; t < 100; ++t) {
        auto idx = rng.sample_indices(50, 20);
        ASSERT_EQ(idx.size(), 20u);
        std::set<std::size_t> s(idx.begin(), idx.end());
        ASSERT_EQ(s.size(), 20u);
        for (std::size_t i : idx) ASSERT_LT(i, 50u);
    }
}

TEST(Rng, SampleIndicesFullSetIsPermutation) {
    Rng rng(67);
    auto idx = rng.sample_indices(10, 10);
    std::set<std::size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleIndicesRejectsOversizedRequest) {
    Rng rng(71);
    EXPECT_THROW(rng.sample_indices(5, 6), CheckError);
}

TEST(Rng, SampleIndicesIsUniform) {
    // Every index should be selected with probability k/n.
    Rng rng(73);
    constexpr std::size_t n = 10, k = 3;
    std::array<int, n> hits{};
    constexpr int kTrials = 30000;
    for (int t = 0; t < kTrials; ++t) {
        for (std::size_t i : rng.sample_indices(n, k)) ++hits[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(hits[i], kTrials * k / n, 400) << "index " << i;
    }
}

}  // namespace
}  // namespace pgf

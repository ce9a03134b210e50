#include "pgf/gridfile/scales.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

TEST(LinearScale, StartsWithOneInterval) {
    LinearScale s(0.0, 100.0);
    EXPECT_EQ(s.intervals(), 1u);
    EXPECT_DOUBLE_EQ(s.interval_lo(0), 0.0);
    EXPECT_DOUBLE_EQ(s.interval_hi(0), 100.0);
}

TEST(LinearScale, RejectsEmptyDomain) {
    EXPECT_THROW(LinearScale(5.0, 5.0), CheckError);
    EXPECT_THROW(LinearScale(5.0, 1.0), CheckError);
}

TEST(LinearScale, LocateWithinSingleInterval) {
    LinearScale s(0.0, 10.0);
    EXPECT_EQ(s.locate(0.0), 0u);
    EXPECT_EQ(s.locate(9.99), 0u);
}

TEST(LinearScale, LocateClampsOutOfDomain) {
    LinearScale s(0.0, 10.0);
    std::uint32_t idx;
    s.insert_split(5.0, &idx);
    EXPECT_EQ(s.locate(-3.0), 0u);
    EXPECT_EQ(s.locate(10.0), 1u);   // at hi -> last interval
    EXPECT_EQ(s.locate(42.0), 1u);
}

TEST(LinearScale, SplitCreatesHalfOpenIntervals) {
    LinearScale s(0.0, 10.0);
    std::uint32_t idx;
    ASSERT_TRUE(s.insert_split(4.0, &idx));
    EXPECT_EQ(idx, 0u);
    EXPECT_EQ(s.intervals(), 2u);
    EXPECT_EQ(s.locate(3.999), 0u);
    EXPECT_EQ(s.locate(4.0), 1u);  // boundary belongs to the upper interval
    EXPECT_DOUBLE_EQ(s.interval_hi(0), 4.0);
    EXPECT_DOUBLE_EQ(s.interval_lo(1), 4.0);
}

TEST(LinearScale, SplitsKeepSortedOrder) {
    LinearScale s(0.0, 100.0);
    std::uint32_t idx;
    ASSERT_TRUE(s.insert_split(50.0, &idx));
    EXPECT_EQ(idx, 0u);
    ASSERT_TRUE(s.insert_split(25.0, &idx));
    EXPECT_EQ(idx, 0u);  // splits the first interval
    ASSERT_TRUE(s.insert_split(75.0, &idx));
    EXPECT_EQ(idx, 2u);  // splits what is now the third interval
    EXPECT_EQ(s.intervals(), 4u);
    EXPECT_DOUBLE_EQ(s.interval_lo(0), 0.0);
    EXPECT_DOUBLE_EQ(s.interval_lo(1), 25.0);
    EXPECT_DOUBLE_EQ(s.interval_lo(2), 50.0);
    EXPECT_DOUBLE_EQ(s.interval_lo(3), 75.0);
    EXPECT_DOUBLE_EQ(s.interval_hi(3), 100.0);
}

TEST(LinearScale, DuplicateSplitRejectedWithoutChange) {
    LinearScale s(0.0, 10.0);
    std::uint32_t idx;
    ASSERT_TRUE(s.insert_split(5.0, &idx));
    EXPECT_FALSE(s.insert_split(5.0, &idx));
    EXPECT_EQ(s.intervals(), 2u);
}

TEST(LinearScale, SplitMustBeStrictlyInterior) {
    LinearScale s(0.0, 10.0);
    EXPECT_THROW(s.insert_split(0.0, nullptr), CheckError);
    EXPECT_THROW(s.insert_split(10.0, nullptr), CheckError);
    EXPECT_THROW(s.insert_split(-1.0, nullptr), CheckError);
}

TEST(LinearScale, SplitWithNullOutParameter) {
    LinearScale s(0.0, 10.0);
    EXPECT_TRUE(s.insert_split(2.0, nullptr));
    EXPECT_EQ(s.intervals(), 2u);
}

TEST(LinearScale, IntervalAccessorsOutOfRangeThrow) {
    // The interval bounds checks are debug-only (PGF_DCHECK): they sit on
    // the per-query hot path and callers only pass locate()-derived
    // indices. Release builds skip the validation entirely.
#if PGF_DCHECK_ACTIVE
    LinearScale s(0.0, 10.0);
    EXPECT_THROW(s.interval_lo(1), CheckError);
    EXPECT_THROW(s.interval_hi(1), CheckError);
#else
    GTEST_SKIP() << "interval bounds are PGF_DCHECK-only in this build";
#endif
}

TEST(LinearScale, IntervalsPartitionDomain) {
    LinearScale s(-5.0, 5.0);
    for (double x : {-2.0, 1.5, 3.0, -4.0}) s.insert_split(x, nullptr);
    double cursor = -5.0;
    for (std::uint32_t i = 0; i < s.intervals(); ++i) {
        EXPECT_DOUBLE_EQ(s.interval_lo(i), cursor);
        EXPECT_GT(s.interval_hi(i), s.interval_lo(i));
        cursor = s.interval_hi(i);
    }
    EXPECT_DOUBLE_EQ(cursor, 5.0);
}

TEST(LinearScale, LocateConsistentWithIntervalBounds) {
    LinearScale s(0.0, 1.0);
    for (double x : {0.31, 0.77, 0.12, 0.55}) s.insert_split(x, nullptr);
    for (std::uint32_t i = 0; i < s.intervals(); ++i) {
        EXPECT_EQ(s.locate(s.interval_lo(i)), i);
        double mid = 0.5 * (s.interval_lo(i) + s.interval_hi(i));
        EXPECT_EQ(s.locate(mid), i);
    }
}

TEST(LinearScale, BranchFreeLocateMatchesUpperBound) {
    // locate() is a branch-free search; it must return what clamping
    // std::upper_bound did, for every split count, on the splits
    // themselves, their neighbours, out-of-domain values, infinities and
    // NaN (the last interval).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rng rng(41);
    LinearScale s(-1.0, 3.0);
    for (int round = 0; round < 40; ++round) {
        std::vector<double> probes = {-kInf, -5.0, -1.0, 3.0, 7.0, kInf,
                                      std::numeric_limits<double>::quiet_NaN()};
        for (double split : s.splits()) {
            probes.push_back(split);
            probes.push_back(std::nextafter(split, -kInf));
            probes.push_back(std::nextafter(split, kInf));
        }
        for (int k = 0; k < 50; ++k) probes.push_back(rng.uniform(-2.0, 4.0));
        for (double x : probes) {
            const auto& sp = s.splits();
            const auto bound = static_cast<std::uint32_t>(
                std::upper_bound(sp.begin(), sp.end(), x) - sp.begin());
            const std::uint32_t expect =
                x < s.lo() ? 0 : (x >= s.hi() ? s.intervals() - 1 : bound);
            EXPECT_EQ(s.locate(x), expect)
                << "x=" << x << " splits=" << sp.size();
        }
        s.insert_split(rng.uniform(-1.0, 3.0), nullptr);
    }
}

}  // namespace
}  // namespace pgf

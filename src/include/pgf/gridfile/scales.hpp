// Linear scales: the per-dimension partitioning of a grid file's domain.
//
// A scale for a domain interval [lo, hi) holds an ordered list of interior
// split points; k split points define k+1 half-open intervals. The grid
// directory's extent along a dimension is exactly the interval count of
// that dimension's scale (Nievergelt & Hinterberger, Sec. 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgf/util/check.hpp"

namespace pgf {

class LinearScale {
public:
    /// Creates a scale over [lo, hi) with no interior splits (one interval).
    LinearScale(double lo, double hi);

    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /// Number of intervals (= splits + 1).
    std::uint32_t intervals() const {
        return static_cast<std::uint32_t>(splits_.size()) + 1;
    }

    /// Index of the interval containing x. Values below the domain map to
    /// interval 0, values at/above hi (and NaN) map to the last interval
    /// (grid files clamp out-of-domain coordinates to the boundary cells).
    ///
    /// A branch-free upper bound: the count of splits s with !(x < s).
    /// Every split lies strictly inside (lo, hi), so the count alone
    /// clamps — none below the domain, all at or above hi and for NaN,
    /// which compares false.
    std::uint32_t locate(double x) const {
        const double* base = splits_.data();
        std::size_t n = splits_.size();
        if (n == 0) return 0;
        while (n > 1) {
            const std::size_t half = n / 2;
            base = x < base[half] ? base : base + half;
            n -= half;
        }
        return static_cast<std::uint32_t>(base - splits_.data()) +
               (x < *base ? 0u : 1u);
    }

    /// Lower/upper boundary of interval i. interval_lo(0) == lo(),
    /// interval_hi(intervals()-1) == hi().
    ///
    /// The bounds checks run per axis on the query and insert hot paths
    /// and per bucket in the structure export; callers only pass
    /// locate()-derived or cell-box-derived indices, so they are
    /// debug-only (PGF_DCHECK).
    double interval_lo(std::uint32_t i) const {
        PGF_DCHECK(i < intervals(), "interval index out of range");
        return i == 0 ? lo_ : splits_[i - 1];
    }
    double interval_hi(std::uint32_t i) const {
        PGF_DCHECK(i < intervals(), "interval index out of range");
        return i == splits_.size() ? hi_ : splits_[i];
    }

    /// Inserts a split at x, which must lie strictly inside interval
    /// locate(x); returns the index of the interval that was split (the new
    /// interval is at index+1). Returns false without modifying the scale
    /// when x coincides with an existing boundary (the split would create an
    /// empty interval).
    bool insert_split(double x, std::uint32_t* split_interval);

    const std::vector<double>& splits() const { return splits_; }

private:
    double lo_;
    double hi_;
    std::vector<double> splits_;  // sorted, strictly inside (lo, hi)
};

}  // namespace pgf

#include "pgf/gridfile/scales.hpp"

#include <algorithm>

#include "pgf/util/check.hpp"

namespace pgf {

LinearScale::LinearScale(double lo, double hi) : lo_(lo), hi_(hi) {
    PGF_CHECK(hi > lo, "LinearScale requires hi > lo");
}

bool LinearScale::insert_split(double x, std::uint32_t* split_interval) {
    PGF_CHECK(x > lo_ && x < hi_, "split must lie strictly inside the domain");
    auto it = std::lower_bound(splits_.begin(), splits_.end(), x);
    if (it != splits_.end() && *it == x) return false;  // duplicate boundary
    auto idx = static_cast<std::uint32_t>(it - splits_.begin());
    splits_.insert(it, x);
    if (split_interval != nullptr) *split_interval = idx;
    return true;
}

}  // namespace pgf

// Partial match queries (Du & Sobolewski's setting, paper Sec. 2).
//
// A partial match query specifies exact values for a subset of the d
// attributes and leaves the rest unspecified:
//     (A_1 = a_1, A_2 = *, ..., A_d = a_d)
// It is the query class for which the disk modulo scheme was proven
// strictly optimal (whenever exactly one attribute is unspecified), and the
// class the fieldwise-xor scheme extends that optimality over.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "pgf/geom/point.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

template <std::size_t D>
struct PartialMatch {
    /// key[i] set = attribute i must equal the value; unset = unspecified.
    std::array<std::optional<double>, D> key{};

    std::size_t specified_count() const {
        std::size_t n = 0;
        for (const auto& k : key) n += k.has_value() ? 1u : 0u;
        return n;
    }

    std::size_t unspecified_count() const { return D - specified_count(); }

    /// A valid partial match query leaves at least one attribute
    /// unspecified (otherwise it is an exact-match lookup).
    bool valid() const { return unspecified_count() >= 1; }

    /// True when `p` equals every specified attribute exactly.
    bool contains(const Point<D>& p) const {
        for (std::size_t i = 0; i < D; ++i) {
            if (key[i].has_value() && p[i] != *key[i]) return false;
        }
        return true;
    }
};

/// Convenience factory: pass one std::optional<double> per dimension.
template <typename... Keys>
auto make_partial_match(Keys... keys) {
    constexpr std::size_t D = sizeof...(Keys);
    PartialMatch<D> q;
    q.key = {std::optional<double>(keys)...};
    return q;
}

}  // namespace pgf

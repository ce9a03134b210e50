// d-dimensional Hilbert curve (Skilling's transpose algorithm).
//
// This is the H(i_1, ..., i_d) mapping used by the HCAM declustering scheme
// (Faloutsos & Bhagwat): grid cells are linearized along the Hilbert curve
// of the smallest enclosing power-of-two cube and then assigned to disks
// round-robin.
//
// Reference: J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc.
// 707 (2004). The algorithm transforms coordinates to/from the "transpose"
// bit layout of the Hilbert index in O(d * b) bit operations.
//
// One transform serves both entry points: hilbert_index (runtime dims,
// checked; HCAM and the curve ablations) and hilbert_index_unchecked (a
// compile-time D for hot loops such as the external sort's keying, where
// the loops over the axes unroll and the bit interleave is a fixed
// sequence of shift-and-mask steps).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pgf/util/check.hpp"

namespace pgf::sfc {

/// Maximum total index width supported (dims * bits must fit in 64 bits).
inline constexpr unsigned kMaxIndexBits = 64;

namespace detail {

/// Masks of the shift-and-mask steps that move bit q of a word to bit
/// N*q. Step k moves s = 16 >> k bits at a time: before it, bit q sits at
/// q + (N-1)*(q & ~(2s-1)); after it, at q + (N-1)*(q & ~(s-1)).
template <std::size_t N>
inline constexpr std::array<std::uint64_t, 5> kSpreadMasks = [] {
    constexpr unsigned width = std::min<unsigned>(32, kMaxIndexBits / N);
    std::array<std::uint64_t, 5> masks{};
    for (unsigned k = 0; k < masks.size(); ++k) {
        const unsigned s = 16u >> k;
        for (unsigned q = 0; q < width; ++q) {
            masks[k] |= std::uint64_t{1} << (q + (N - 1) * (q & ~(s - 1)));
        }
    }
    return masks;
}();

/// Bit q of `v` moved to bit N*q.
template <std::size_t N>
constexpr std::uint64_t spread_bits(std::uint32_t v) {
    constexpr unsigned width = std::min<unsigned>(32, kMaxIndexBits / N);
    std::uint64_t w = v;
    for (unsigned k = 0; k < 5; ++k) {
        const unsigned s = 16u >> k;
        if (N > 1 && s < width) {
            w = (w | w << (s * (N - 1))) & kSpreadMasks<N>[k];
        }
    }
    return w;
}

/// Skilling's coordinates -> Hilbert index, branch-free, clobbering `x`.
/// Extent is the dimension count when it is known at compile time, or
/// std::dynamic_extent. Requires 1 <= bits <= 32, x.size() * bits <= 64
/// and every x[i] < 2^bits.
template <std::size_t Extent>
std::uint64_t hilbert_transform(std::span<std::uint32_t, Extent> x,
                                unsigned bits) {
    const std::size_t n = x.size();
    // Inverse undo of the excess rotations/reflections: per bit plane b,
    // an axis with bit b set inverts the low bits of x[0], any other
    // exchanges its low bits with x[0]'s (a no-op for x[0] itself).
    std::uint32_t x0 = x[0];
    for (unsigned b = bits - 1; b > 0; --b) {
        const std::uint32_t low = (std::uint32_t{1} << b) - 1;
        x0 ^= low & (0u - ((x0 >> b) & 1u));
        for (std::size_t i = 1; i < n; ++i) {
            const std::uint32_t set = 0u - ((x[i] >> b) & 1u);
            const std::uint32_t swap = (x0 ^ x[i]) & low & ~set;
            x0 ^= (low & set) | swap;
            x[i] ^= swap;
        }
    }
    x[0] = x0;
    // Gray encode. Every set bit b >= 1 of x[n-1] flips the bits below b,
    // so bit j of t is the parity of x[n-1]'s bits above j.
    for (std::size_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
    std::uint32_t t = x[n - 1] >> 1;
    for (unsigned s = 1; s < 32; s <<= 1) t ^= t >> s;
    // Pack the transpose form: bit q of x[i] is index bit q*n + (n-1-i),
    // so the most significant bit plane comes first and x[0] leads within
    // a plane.
    std::uint64_t index = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t v = x[i] ^ t;
        if constexpr (Extent != std::dynamic_extent) {
            index |= spread_bits<Extent>(v) << (n - 1 - i);
        } else {
            for (unsigned q = 0; q < bits; ++q) {
                index |= std::uint64_t{(v >> q) & 1u} << (q * n + n - 1 - i);
            }
        }
    }
    return index;
}

}  // namespace detail

/// Hilbert index of the cell at `coords` in a [0, 2^bits)^dims cube.
/// Requirements: 1 <= dims, 1 <= bits <= 32, dims*bits <= 64,
/// coords[i] < 2^bits; each is checked (CheckError).
std::uint64_t hilbert_index(std::span<const std::uint32_t> coords,
                            unsigned bits);

/// Same mapping for a compile-time dimension count, with no per-call
/// validation: the caller checks bits once (1 <= bits <= 32, D*bits <= 64)
/// and keeps every coordinate below 2^bits, which checked builds verify.
template <std::size_t D>
std::uint64_t hilbert_index_unchecked(std::array<std::uint32_t, D> cell,
                                      unsigned bits) {
    static_assert(D >= 1 && D <= kMaxIndexBits);
    PGF_DCHECK(bits >= 1 && bits <= 32 && D * bits <= kMaxIndexBits,
               "hilbert: bits out of range for D");
    PGF_DCHECK(std::all_of(cell.begin(), cell.end(),
                           [bits](std::uint32_t c) {
                               return bits == 32 || c < (1u << bits);
                           }),
               "hilbert: coordinate exceeds the 2^bits cube");
    return detail::hilbert_transform(std::span<std::uint32_t, D>(cell), bits);
}

/// Inverse mapping: cell coordinates of Hilbert index `index`.
std::vector<std::uint32_t> hilbert_coords(std::uint64_t index, unsigned dims,
                                          unsigned bits);

/// Smallest b such that every extent fits: max_i ceil(log2(shape[i])),
/// at least 1. Used to pick the enclosing cube for non-square grids.
unsigned bits_for_shape(std::span<const std::uint32_t> shape);

}  // namespace pgf::sfc

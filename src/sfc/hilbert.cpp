#include "pgf/sfc/hilbert.hpp"

#include "pgf/util/check.hpp"

namespace pgf::sfc {

namespace {

void validate(unsigned dims, unsigned bits) {
    PGF_CHECK(dims >= 1, "hilbert: dims must be >= 1");
    PGF_CHECK(bits >= 1 && bits <= 32, "hilbert: bits must be in [1,32]");
    PGF_CHECK(dims * bits <= kMaxIndexBits,
              "hilbert: dims*bits must fit in a 64-bit index");
}

// Skilling: transpose form -> coordinates (in place).
void transpose_to_axes(std::span<std::uint32_t> x, unsigned bits) {
    const auto n = x.size();
    const std::uint32_t big = bits < 32 ? (1u << bits) : 0u;  // 2^bits (0 = 2^32)
    // Gray decode by H ^ (H/2).
    std::uint32_t t = x[n - 1] >> 1;
    for (std::size_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
    x[0] ^= t;
    // Undo excess work.
    for (std::uint32_t q = 2; q != big; q <<= 1) {
        const std::uint32_t p = q - 1;
        for (std::size_t i = n; i-- > 0;) {
            if (x[i] & q) {
                x[0] ^= p;
            } else {
                const std::uint32_t s = (x[0] ^ x[i]) & p;
                x[0] ^= s;
                x[i] ^= s;
            }
        }
    }
}

// Splits a packed index into its transpose form (the inverse of
// hilbert_transform's packing step).
std::vector<std::uint32_t> unpack_transpose(std::uint64_t index, unsigned dims,
                                            unsigned bits) {
    std::vector<std::uint32_t> x(dims, 0);
    unsigned shift = dims * bits;
    for (unsigned q = bits; q-- > 0;) {
        for (unsigned i = 0; i < dims; ++i) {
            --shift;
            x[i] |= static_cast<std::uint32_t>((index >> shift) & 1u) << q;
        }
    }
    return x;
}

}  // namespace

std::uint64_t hilbert_index(std::span<const std::uint32_t> coords,
                            unsigned bits) {
    const auto dims = static_cast<unsigned>(coords.size());
    validate(dims, bits);
    std::array<std::uint32_t, kMaxIndexBits> x;
    for (unsigned i = 0; i < dims; ++i) {
        PGF_CHECK(bits == 32 || coords[i] < (1u << bits),
                  "hilbert: coordinate exceeds the 2^bits cube");
        x[i] = coords[i];
    }
    return detail::hilbert_transform(std::span<std::uint32_t>(x.data(), dims),
                                     bits);
}

std::vector<std::uint32_t> hilbert_coords(std::uint64_t index, unsigned dims,
                                          unsigned bits) {
    validate(dims, bits);
    if (dims * bits < 64) {
        PGF_CHECK(index < (1ULL << (dims * bits)),
                  "hilbert: index exceeds the 2^(dims*bits) range");
    }
    auto x = unpack_transpose(index, dims, bits);
    transpose_to_axes(x, bits);
    return x;
}

unsigned bits_for_shape(std::span<const std::uint32_t> shape) {
    std::uint32_t max_extent = 1;
    for (std::uint32_t s : shape) max_extent = std::max(max_extent, s);
    unsigned b = 1;
    while ((1u << b) < max_extent) ++b;
    return b;
}

}  // namespace pgf::sfc

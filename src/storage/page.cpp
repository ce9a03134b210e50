#include "pgf/storage/page.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "pgf/util/file.hpp"

namespace pgf {
namespace {

constexpr std::uint32_t kCastagnoli = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? kCastagnoli : 0u);
        table[i] = crc;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc32c_table();

// Header field offsets (little endian throughout).
constexpr std::size_t kCrcOffset = 0;
constexpr std::size_t kCrcBytes = 4;
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kLsnOffset = 8;

#if defined(__x86_64__)
// Advancing a CRC register across n zero bytes is linear over GF(2): a
// 32x32 bit matrix, applied here a register byte at a time through four
// 256-entry tables (table k holds the images of byte k's 256 values).
// The three-stream kernel joins its streams with it.
using ZeroShift = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ZeroShift make_zero_shift(std::size_t n) {
    std::array<std::uint32_t, 32> column{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
        std::uint32_t crc = 1u << bit;
        for (std::size_t i = 0; i < n; ++i)
            crc = kCrcTable[crc & 0xFFu] ^ (crc >> 8);
        column[bit] = crc;
    }
    ZeroShift shift{};
    for (std::size_t k = 0; k < 4; ++k) {
        for (std::uint32_t v = 0; v < 256; ++v) {
            std::uint32_t image = 0;
            for (std::size_t bit = 0; bit < 8; ++bit)
                if ((v >> bit) & 1u) image ^= column[8 * k + bit];
            shift[k][v] = image;
        }
    }
    return shift;
}

std::uint32_t apply_zero_shift(const ZeroShift& shift, std::uint32_t crc) {
    return shift[0][crc & 0xFFu] ^ shift[1][(crc >> 8) & 0xFFu] ^
           shift[2][(crc >> 16) & 0xFFu] ^ shift[3][crc >> 24];
}

// Lane widths of the three-stream kernel, and their shift operators,
// built at compile time (function-local statics would pay a guard check
// per call).
constexpr std::size_t kLongLane = 2048;
constexpr std::size_t kShortLane = 256;
constexpr ZeroShift kShiftLong = make_zero_shift(kLongLane);
constexpr ZeroShift kShiftShort = make_zero_shift(kShortLane);

// Runs three independent CRC32 streams over each block of 3 * kLane bytes
// (the instruction takes three cycles but can start every cycle, so three
// streams keep it busy), then joins them: crc(s, A B C) =
// shift(shift(crc(s, A)) ^ crc(0, B)) ^ crc(0, C) for a shift across
// kLane zero bytes.
template <std::size_t kLane>
__attribute__((target("sse4.2"))) inline void crc32c_three_streams(
    const std::byte*& p, std::size_t& n, std::uint32_t& crc,
    const ZeroShift& shift) {
    for (; n >= 3 * kLane; p += 3 * kLane, n -= 3 * kLane) {
        std::uint64_t a = crc;
        std::uint64_t b = 0;
        std::uint64_t c = 0;
        for (std::size_t i = 0; i < kLane; i += 8) {
            std::uint64_t wa;
            std::uint64_t wb;
            std::uint64_t wc;
            std::memcpy(&wa, p + i, sizeof(wa));
            std::memcpy(&wb, p + kLane + i, sizeof(wb));
            std::memcpy(&wc, p + 2 * kLane + i, sizeof(wc));
            a = _mm_crc32_u64(a, wa);
            b = _mm_crc32_u64(b, wb);
            c = _mm_crc32_u64(c, wc);
        }
        const std::uint32_t ab =
            apply_zero_shift(shift, static_cast<std::uint32_t>(a)) ^
            static_cast<std::uint32_t>(b);
        crc = apply_zero_shift(shift, ab) ^ static_cast<std::uint32_t>(c);
    }
}
#endif

using Crc32cKernel = std::uint32_t (*)(std::span<const std::byte>,
                                       std::uint32_t);

Crc32cKernel pick_crc32c_kernel() {
#if defined(__x86_64__)
    if (detail::cpu_has_sse42()) return detail::crc32c_sse42;
#endif
    return detail::crc32c_table;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t seed) {
    std::uint32_t crc = seed;
    for (const std::byte b : data)
        crc = kCrcTable[(crc ^ std::to_integer<std::uint8_t>(b)) & 0xFFu] ^
              (crc >> 8);
    return crc;
}

#if defined(__x86_64__)
bool cpu_has_sse42() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
}

// The CRC32 instruction computes this same reflected Castagnoli update
// with no pre- or post-inversion, so the register carries over from the
// table loop's convention unchanged.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
    const std::byte* p = data.data();
    std::size_t n = data.size();
    std::uint32_t crc32 = seed;
    crc32c_three_streams<kLongLane>(p, n, crc32, kShiftLong);
    crc32c_three_streams<kShortLane>(p, n, crc32, kShiftShort);
    std::uint64_t crc = crc32;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    crc32 = static_cast<std::uint32_t>(crc);
    for (; n > 0; ++p, --n)
        crc32 = _mm_crc32_u8(crc32, std::to_integer<std::uint8_t>(*p));
    return crc32;
}
#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
    static const Crc32cKernel kernel = pick_crc32c_kernel();
    return kernel(data, seed);
}

std::uint32_t page_stored_crc(std::span<const std::byte> page) {
    return load_le<std::uint32_t>(page.data() + kCrcOffset);
}

std::uint32_t page_compute_crc(std::span<const std::byte> page) {
    return crc32c(page.subspan(kCrcBytes));
}

bool page_checksum_ok(std::span<const std::byte> page) {
    return page.size() >= kPageHeaderBytes &&
           page_stored_crc(page) == page_compute_crc(page);
}

std::uint16_t page_version(std::span<const std::byte> page) {
    return static_cast<std::uint16_t>(
        std::to_integer<std::uint8_t>(page[kVersionOffset]) |
        (std::to_integer<std::uint8_t>(page[kVersionOffset + 1]) << 8));
}

std::uint64_t page_lsn(std::span<const std::byte> page) {
    return load_le<std::uint64_t>(page.data() + kLsnOffset);
}

void set_page_lsn(std::span<std::byte> page, std::uint64_t lsn) {
    store_le<std::uint64_t>(page.data() + kLsnOffset, lsn);
}

}  // namespace pgf

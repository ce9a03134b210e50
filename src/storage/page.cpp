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
    std::uint64_t crc = seed;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
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

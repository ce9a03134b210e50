#include "pgf/storage/page.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
    std::uint32_t crc = seed;
    for (const std::byte b : data)
        crc = kCrcTable[(crc ^ std::to_integer<std::uint8_t>(b)) & 0xFFu] ^
              (crc >> 8);
    return crc;
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

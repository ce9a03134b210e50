// The on-disk page format shared by every PageFile-backed store.
//
// Every page starts with a 16-byte header; the rest is payload owned by
// the layer above (bucket records):
//
//   offset  size  field
//        0     4  crc32c over bytes [4, page_size)   (little endian)
//        4     2  format version (kPageFormatVersion)
//        6     2  flags (reserved, 0)
//        8     8  page LSN — the WAL record that last wrote this page
//                 (0 = never logged / durability off)
//
// The checksum uses CRC32C (Castagnoli) with a zero initial value and no
// final xor. That choice makes an all-zero page self-consistent: a page
// the filesystem extended with zeros (e.g. after a crash between file
// growth and the first write) reads back as a *valid empty page* rather
// than a checksum error, and recovery simply overwrites it from the log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pgf {

/// Bytes reserved at the start of every page for the durability header.
inline constexpr std::size_t kPageHeaderBytes = 16;

/// Stamped into the version field by every write ("PGFPAGE2" files).
inline constexpr std::uint16_t kPageFormatVersion = 2;

/// CRC32C (Castagnoli, poly 0x82F63B78, reflected), zero-init / zero-xorout.
/// `seed` chains incremental computations: crc32c(b, crc32c(a)) ==
/// crc32c(a+b).
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// The stored checksum of a full page image.
std::uint32_t page_stored_crc(std::span<const std::byte> page);

/// The checksum the page contents *should* carry: crc32c over
/// [kPageCrcBytes, page.size()).
std::uint32_t page_compute_crc(std::span<const std::byte> page);

/// True when the stored checksum matches the contents. An all-zero page
/// passes by construction (see header comment).
bool page_checksum_ok(std::span<const std::byte> page);

/// The format version field (0 on never-written pages).
std::uint16_t page_version(std::span<const std::byte> page);

/// The page LSN field.
std::uint64_t page_lsn(std::span<const std::byte> page);

/// Stamps the page LSN field (checksum becomes stale until the next
/// PageFile::write, which recomputes it).
void set_page_lsn(std::span<std::byte> page, std::uint64_t lsn);

}  // namespace pgf

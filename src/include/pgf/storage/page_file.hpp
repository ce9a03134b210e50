// File-backed page store: the persistence substrate under the grid file.
//
// Layout: a superblock at offset 0 (magic, page size, page count) followed
// by fixed-size pages. Page ids are 0-based over the data pages; the
// superblock is not addressable. All I/O is synchronous and unbuffered at
// this layer (positional reads and writes through pgf/util/file.hpp) —
// caching is the BufferPool's job.
//
// Every page carries the 16-byte durability header of pgf/storage/page.hpp:
// write() stamps the format version and CRC32C checksum (whatever the
// caller's buffer held in those fields is ignored), read() verifies the
// checksum and reports a torn or corrupt page as a typed CheckError. The
// LSN field is passed through verbatim — the layers above own it.
//
// The superblock is rewritten (by sync() and the destructor) only when
// the page count differs from the one it holds, so a file opened just to
// read never writes: a reader closing after the owner grew the file
// cannot roll the on-disk count back.
//
// Crash injection: a file created with a FaultInjector makes every page
// write (allocate's zero page included) an injection point; superblock
// writes are not, and after the crash they are dropped like the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pgf/util/file.hpp"

namespace pgf {

class PageFile {
public:
    static constexpr std::size_t kDefaultPageSize = 4096;
    static constexpr std::size_t kMinPageSize = 64;

    /// Creates (truncating) a page file with the given page size.
    static PageFile create(const std::string& path,
                           std::size_t page_size = kDefaultPageSize,
                           FaultInjector* injector = nullptr);

    /// Opens an existing page file; the page size comes from the superblock.
    static PageFile open(const std::string& path);

    PageFile(PageFile&&) = default;
    PageFile(const PageFile&) = delete;
    PageFile& operator=(const PageFile&) = delete;
    ~PageFile();

    std::size_t page_size() const { return page_size_; }
    std::uint64_t page_count() const { return page_count_; }
    const std::string& path() const { return file_.path(); }

    /// Payload bytes per page (page_size() minus the durability header).
    std::size_t payload_size() const;

    /// Appends a zeroed page; returns its id.
    std::uint64_t allocate();

    /// Reads page `id` into `out` (out.size() must equal page_size()) and
    /// verifies its checksum; a short read or a mismatch (torn or corrupt
    /// page) throws a CheckError.
    void read(std::uint64_t id, std::span<std::byte> out) const;

    /// Writes `data` (page_size() bytes) to page `id`, stamping the format
    /// version and checksum into the header on the way out. `data` is not
    /// modified; its crc/version fields are ignored.
    void write(std::uint64_t id, std::span<const std::byte> data);

    /// Persists the superblock when the page count changed.
    void sync();

    /// Probe for audits and recovery: reads the raw page bytes into `out`
    /// and returns whether the checksum verifies. A short read (file
    /// truncated mid-page) zero-fills the tail and returns false unless
    /// the zero page happens to verify. Throws only IoError.
    bool try_read(std::uint64_t id, std::span<std::byte> out) const;

    /// Assembles header (LSN) + payload (payload_size() bytes) into a full
    /// page image and writes it — the recovery path's page applicator.
    void write_payload(std::uint64_t id, std::span<const std::byte> payload,
                       std::uint64_t lsn);

    /// Grows the file with zeroed pages until page_count() >= n (recovery
    /// after a crash that left the superblock's count stale).
    void ensure_page_count(std::uint64_t n);

private:
    explicit PageFile(File file) : file_(std::move(file)) {}

    void write_superblock();
    std::uint64_t page_offset(std::uint64_t id) const;

    File file_;
    std::size_t page_size_ = 0;
    std::uint64_t page_count_ = 0;
    std::uint64_t superblock_count_ = 0;  ///< page count on disk
    std::vector<std::byte> scratch_;      ///< stamped image of a write
};

}  // namespace pgf

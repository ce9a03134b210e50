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
// Catalog: the layer above may append one checksummed trailer right after
// the last page (magic "PGFCAT1\0", u64 body length, u32 CRC32C of the
// body, then the body) — the paged grid file keeps its access structure
// there. Page writes and allocations never keep it: the first one after
// write_catalog() (or after an open() that found a catalog) truncates the
// file back to the end of its pages, so a catalog on disk always
// describes the pages before it.
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

    /// Writes `body` as the catalog after the last page, syncing the
    /// superblock first so open() finds it. Not a crash-injection point.
    void write_catalog(std::span<const std::byte> body);

    /// True while a catalog follows the last page: written by
    /// write_catalog() or found by open(), with no page write since.
    bool has_catalog() const { return catalog_offset_ != 0; }

    /// The catalog body. Throws CheckError when there is none (the file
    /// was never flushed, or a page was written after the flush) or when
    /// its length or checksum does not match; the body is allocated only
    /// after its length matched the file's.
    std::vector<std::byte> read_catalog() const;

private:
    explicit PageFile(File file) : file_(std::move(file)) {}

    void write_superblock();
    std::uint64_t page_offset(std::uint64_t id) const;

    File file_;
    std::size_t page_size_ = 0;
    std::uint64_t page_count_ = 0;
    std::uint64_t superblock_count_ = 0;  ///< page count on disk
    std::uint64_t catalog_offset_ = 0;    ///< 0 = no catalog on disk
    std::vector<std::byte> scratch_;      ///< stamped image of a write
};

}  // namespace pgf

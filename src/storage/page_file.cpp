#include "pgf/storage/page_file.hpp"

#include <algorithm>
#include <cstring>

#include "pgf/storage/page.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

namespace {

constexpr char kMagic[8] = {'P', 'G', 'F', 'P', 'A', 'G', 'E', '2'};
constexpr std::size_t kSuperblockSize = 24;  // magic + page_size + page_count
// No page header can read as this magic: bytes 4-7 of a page hold the
// format version 2 and zero flags.
constexpr char kCatalogMagic[8] = {'P', 'G', 'F', 'C', 'A', 'T', '1', '\0'};
constexpr std::size_t kCatalogHeaderSize = 20;  // magic + length + crc

}  // namespace

PageFile PageFile::create(const std::string& path, std::size_t page_size,
                          FaultInjector* injector) {
    PGF_CHECK(page_size >= kMinPageSize, "page size too small");
    PGF_CHECK(page_size > kPageHeaderBytes, "page size below header size");
    PageFile pf(File(path, File::Mode::kCreate, injector));
    pf.page_size_ = page_size;
    pf.write_superblock();
    return pf;
}

PageFile PageFile::open(const std::string& path) {
    PageFile pf(File(path, File::Mode::kReadWrite));
    std::byte header[kSuperblockSize];
    const std::size_t got = pf.file_.read_at(0, header);
    PGF_CHECK(got == kSuperblockSize,
              "PageFile: truncated superblock in " + path);
    PGF_CHECK(std::memcmp(header, kMagic, sizeof(kMagic)) == 0,
              "PageFile: bad magic in " + path);
    pf.page_size_ = static_cast<std::size_t>(load_le<std::uint64_t>(header + 8));
    pf.page_count_ = load_le<std::uint64_t>(header + 16);
    pf.superblock_count_ = pf.page_count_;
    PGF_CHECK(pf.page_size_ >= kMinPageSize,
              "PageFile: corrupt page size in " + path);
    // The bound keeps a corrupt page count from overflowing the offset.
    std::byte magic[sizeof(kCatalogMagic)];
    const std::uint64_t end = pf.page_offset(pf.page_count_);
    if (pf.page_count_ <= pf.file_.size() / pf.page_size_ &&
        pf.file_.read_at(end, magic) == sizeof(magic) &&
        std::memcmp(magic, kCatalogMagic, sizeof(magic)) == 0) {
        pf.catalog_offset_ = end;
    }
    return pf;
}

PageFile::~PageFile() {
    if (!file_.is_open()) return;  // moved from
    // A destructor cannot report a failed superblock write; callers that
    // must know call sync() first.
    try {
        sync();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
}

std::size_t PageFile::payload_size() const {
    return page_size_ - kPageHeaderBytes;
}

std::uint64_t PageFile::page_offset(std::uint64_t id) const {
    return kSuperblockSize + id * page_size_;
}

void PageFile::write_superblock() {
    std::byte header[kSuperblockSize] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    store_le<std::uint64_t>(header + 8, page_size_);
    store_le<std::uint64_t>(header + 16, page_count_);
    file_.write_at(0, header, CrashSite::kNo);
    superblock_count_ = page_count_;
}

std::uint64_t PageFile::allocate() {
    std::uint64_t id = page_count_++;
    std::vector<std::byte> zero(page_size_, std::byte{0});
    write(id, zero);
    return id;
}

void PageFile::read(std::uint64_t id, std::span<std::byte> out) const {
    PGF_CHECK(id < page_count_, "PageFile: read past end");
    PGF_CHECK(out.size() == page_size_, "PageFile: read buffer size mismatch");
    const std::size_t got = file_.read_at(page_offset(id), out);
    PGF_CHECK(got == page_size_, "PageFile: short read of page " +
                                     std::to_string(id) + " of " + path());
    PGF_CHECK(page_checksum_ok(out),
              "PageFile: checksum mismatch on page " + std::to_string(id) +
                  " of " + path() + " (torn or corrupt page)");
}

bool PageFile::try_read(std::uint64_t id, std::span<std::byte> out) const {
    if (id >= page_count_ || out.size() != page_size_) return false;
    // A short read at the tail of a crashed file leaves a zero fill; the
    // checksum decides whether what we got is a whole page.
    const std::size_t got = file_.read_at(page_offset(id), out);
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(got), out.end(),
              std::byte{0});
    return page_checksum_ok(out);
}

void PageFile::write(std::uint64_t id, std::span<const std::byte> data) {
    PGF_CHECK(id < page_count_, "PageFile: write past end");
    PGF_CHECK(data.size() == page_size_,
              "PageFile: write buffer size mismatch");
    if (catalog_offset_ != 0) {
        // The catalog no longer describes the pages: drop it.
        file_.truncate(catalog_offset_);
        catalog_offset_ = 0;
    }
    scratch_.assign(data.begin(), data.end());
    scratch_[4] = static_cast<std::byte>(kPageFormatVersion & 0xff);
    scratch_[5] = static_cast<std::byte>(kPageFormatVersion >> 8);
    scratch_[6] = std::byte{0};  // flags (reserved)
    scratch_[7] = std::byte{0};
    store_le<std::uint32_t>(scratch_.data(), page_compute_crc(scratch_));
    file_.write_at(page_offset(id), scratch_);
}

void PageFile::write_payload(std::uint64_t id,
                             std::span<const std::byte> payload,
                             std::uint64_t lsn) {
    PGF_CHECK(payload.size() == payload_size(),
              "PageFile: payload size mismatch");
    std::vector<std::byte> page(page_size_, std::byte{0});
    set_page_lsn(page, lsn);
    std::memcpy(page.data() + kPageHeaderBytes, payload.data(),
                payload.size());
    write(id, page);
}

void PageFile::ensure_page_count(std::uint64_t n) {
    while (page_count_ < n) allocate();
}

void PageFile::sync() {
    if (page_count_ != superblock_count_) write_superblock();
}

void PageFile::write_catalog(std::span<const std::byte> body) {
    sync();
    std::vector<std::byte> out(kCatalogHeaderSize + body.size());
    std::memcpy(out.data(), kCatalogMagic, sizeof(kCatalogMagic));
    store_le<std::uint64_t>(out.data() + 8, body.size());
    store_le<std::uint32_t>(out.data() + 16, crc32c(body));
    std::copy(body.begin(), body.end(), out.begin() + kCatalogHeaderSize);
    const std::uint64_t offset = page_offset(page_count_);
    file_.write_at(offset, out, CrashSite::kNo);
    file_.truncate(offset + out.size());  // a longer old catalog's tail
    catalog_offset_ = offset;
}

std::vector<std::byte> PageFile::read_catalog() const {
    PGF_CHECK(catalog_offset_ != 0,
              "PageFile: no catalog after the last page of " + path() +
                  " (never flushed, or written since its last flush)");
    std::byte header[kCatalogHeaderSize];
    PGF_CHECK(file_.read_at(catalog_offset_, header) == kCatalogHeaderSize,
              "PageFile: truncated catalog in " + path());
    const std::uint64_t length = load_le<std::uint64_t>(header + 8);
    PGF_CHECK(length == file_.size() - catalog_offset_ - kCatalogHeaderSize,
              "PageFile: catalog length does not match the file size of " +
                  path());
    std::vector<std::byte> body(static_cast<std::size_t>(length));
    PGF_CHECK(file_.read_at(catalog_offset_ + kCatalogHeaderSize, body) ==
                  body.size(),
              "PageFile: truncated catalog in " + path());
    PGF_CHECK(crc32c(body) == load_le<std::uint32_t>(header + 16),
              "PageFile: catalog checksum mismatch in " + path());
    return body;
}

}  // namespace pgf

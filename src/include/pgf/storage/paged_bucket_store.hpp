// Disk-resident BucketStore: one bucket == one page of a PageFile, read
// and written through the LRU BufferPool. Only bucket metadata (cell box,
// page id, record count) stays in memory.
//
// Page layout (little-endian): the PageFile's 16-byte durability header
// (checksum, format version, LSN — see pgf/storage/page.hpp), then a u64
// record count, then `count` records of (D+1) u64 words — D coordinate
// doubles (bit-cast) plus the record id. The capacity follows from the
// page size: (page_size - 16 - 8) / ((D+1)*8). The BufferPool hands this
// layer payload-only views, so everything below the durability header is
// encoded/decoded exactly as before the header existed.
//
// Durability (optional): constructed with a WalSetup naming a log path,
// the store journals physical redo into a WriteAheadLog — a genesis
// record with the grid parameters (dims, page size, capacity, a u8 split
// rule, 0 = midpoint, and the domain), a page record for every page
// write, a metadata record for every bucket create / split / refinement,
// and a commit marker at each operation boundary (an insert, an erase, a
// bulk-load block). A page record carries
// only the payload words the write changed: the new words are compared
// with the page in 8-byte words, and the differing runs are copied into
// the page and logged as (offset, length, bytes) ranges, so a page is its
// zero allocation image plus every range logged for it. An encode
// compares its whole encoded prefix; an append compares only the count
// word and the run's words, the only ones it can change. The
// BufferPool enforces WAL-before-data ordering on eviction (a dirty
// page's log records are flushed before its image may overwrite the
// on-disk pre-image), so after a crash anywhere, pgf/storage/recovery.hpp
// replays the committed log prefix into a state that passes the deep
// audit. Without a WalSetup the store behaves exactly as before — no log,
// no extra writes, and on-disk bytes identical to the pre-durability
// format apart from the page header.
//
// Edit protocol (see bucket_store.hpp): append(b, run) writes the run's
// records from slot `count` on and the new count word in place — one pool
// fetch, no decode, no encode — and is how an insert into a page with room
// and each run of the bulk loader land.
// edit(b) decodes b's page into one in-memory buffer; the engine mutates
// it (an overflowing buffer may transiently exceed the page capacity — it
// lives in memory until splits produce page-sized halves); split_active
// encodes the non-continuing half to its page; commit(b) encodes the
// buffer back to b's page. For the same records, an append of a run and
// an edit session that pushes them write the same page bytes and log the
// same ranges. A strict-
// capacity store: a bucket can never stay oversized, so the engine rejects
// inseparable duplicate overflows with CheckError.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/bucket_store.hpp"
#include "pgf/gridfile/directory.hpp"
#include "pgf/gridfile/grid_file_core.hpp"
#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/storage/wal.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

/// Durability knobs of a PagedBucketStore. Default-constructed == no WAL:
/// the historical store, byte-identical behavior and on-disk format.
template <std::size_t D>
struct WalSetup {
    /// Path of the write-ahead log; empty disables durability entirely.
    std::string path;
    /// Crash-injection hook: wired into both the data file's page writes
    /// and the log's group flushes (tests arm it after construction).
    FaultInjector* injector = nullptr;
    /// Genesis payload: the domain recovery needs to rebuild the file
    /// from the log alone (page size and capacity come from the store).
    Rect<D> domain{};
};

template <std::size_t D>
class PagedBucketStore {
public:
    using Records = std::vector<GridRecord<D>>;
    static constexpr bool kStrictCapacity = true;
    static constexpr std::size_t kRecordBytes = (D + 1) * 8;
    static constexpr std::size_t kCountBytes = 8;

    /// In-memory bucket metadata — public because recovery rebuilds the
    /// vector from the log and hands it to the OpenTag constructor.
    struct Meta {
        CellBox<D> cells;
        std::uint64_t page = 0;
        std::size_t count = 0;  ///< mirrored from the page header
    };

    /// Records per page for a given page size, net of the PageFile's
    /// durability header (0 when the headers alone don't fit — callers
    /// must check the result is usable).
    static std::size_t capacity_for(std::size_t page_size) {
        if (page_size <= kPageHeaderBytes + kCountBytes) return 0;
        return (page_size - kPageHeaderBytes - kCountBytes) / kRecordBytes;
    }

    /// Smallest page size holding exactly `capacity` records — the inverse
    /// of capacity_for, used to build a paged file cell-for-cell comparable
    /// to an in-memory one with that bucket capacity.
    static std::size_t page_size_for(std::size_t capacity) {
        return kPageHeaderBytes + kCountBytes + capacity * kRecordBytes;
    }

    /// Creates (truncating) the backing file at `path`. A non-empty
    /// `wal.path` turns on write-ahead logging (and truncates any log
    /// already there).
    PagedBucketStore(const std::string& path, std::size_t page_size,
                     std::size_t pool_pages, WalSetup<D> wal_setup = {})
        : file_(std::make_unique<PageFile>(
              PageFile::create(path, page_size, wal_setup.injector))),
          wal_(wal_setup.path.empty()
                   ? nullptr
                   : WriteAheadLog::create(wal_setup.path,
                                           wal_setup.injector)),
          pool_(*file_, pool_pages, wal_.get()),
          capacity_(capacity_for(page_size)) {
        if (wal_ != nullptr) log_genesis(page_size, wal_setup);
    }

    /// Reopen tag: adopt an existing data file and its bucket metadata —
    /// replayed from the log by crash recovery (with the reopened,
    /// tail-truncated log) or read from the file's catalog (no log). A
    /// `read_only` store belongs to a log it was opened without: any
    /// modification throws, because a later replay of that log would
    /// silently revert it.
    struct OpenTag {};
    PagedBucketStore(OpenTag, std::unique_ptr<PageFile> file,
                     std::vector<Meta> metas,
                     std::unique_ptr<WriteAheadLog> wal,
                     std::size_t pool_pages, bool read_only = false)
        : file_(std::move(file)),
          wal_(std::move(wal)),
          pool_(*file_, pool_pages, wal_.get()),
          capacity_(capacity_for(file_->page_size())),
          metas_(std::move(metas)),
          read_only_(read_only) {}

    std::size_t bucket_count() const { return metas_.size(); }

    std::uint32_t create_bucket(const CellBox<D>& cells,
                                std::size_t /*reserve_hint*/) {
        auto id = static_cast<std::uint32_t>(metas_.size());
        Meta meta;
        meta.cells = cells;
        meta.page = pool_.allocate().page_id();
        metas_.push_back(meta);
        if (wal_ != nullptr) {
            std::vector<std::byte> body;
            wal_put_u32(body, id);
            wal_put_u64(body, meta.page);
            for (std::size_t i = 0; i < D; ++i) {
                wal_put_u32(body, cells.lo[i]);
                wal_put_u32(body, cells.hi[i]);
            }
            wal_->append(WalRecordKind::kCreate, body);
            // Also journal the page's empty encode (no range: the zero
            // page reads empty): every committed bucket then has a kPage
            // record, so recovery can roll an uncommitted on-disk image
            // back to the committed state even for buckets that never saw
            // a record.
            store(id, nullptr, 0);
        }
        return id;
    }

    const CellBox<D>& cells(std::uint32_t b) const { return metas_[b].cells; }
    CellBox<D>& cells(std::uint32_t b) { return metas_[b].cells; }
    std::size_t size(std::uint32_t b) const { return metas_[b].count; }

    const Records& read(std::uint32_t b) const {
        load(b, read_buf_);
        return read_buf_;
    }

    /// Writes `run` from slot `count` of bucket `b`'s page on and the new
    /// count word, in place (see the file comment); the page must have room
    /// for the whole run.
    void append(std::uint32_t b, std::span<const GridRecord<D>> run) {
        check_writable();
        Meta& meta = metas_[b];
        PGF_CHECK(run.size() <= capacity_ - meta.count,
                  "store: bucket exceeds its page");
        auto page = fetch_checked(b);
        std::byte count_word[kCountBytes];
        store_le<std::uint64_t>(count_word, meta.count + run.size());
        const std::size_t slot = kCountBytes + meta.count * kRecordBytes;
        if (wal_ == nullptr) {
            std::memcpy(page.data().data(), count_word, kCountBytes);
            encode_records(page.data().data() + slot, run);
        } else {
            encoded_.resize(run.size() * kRecordBytes);
            encode_records(encoded_.data(), run);
            page.set_lsn(journal_changed_words(
                meta.page, page.data(), {{0, count_word}, {slot, encoded_}}));
        }
        page.mark_dirty();
        meta.count += run.size();
    }

    Records& edit(std::uint32_t b) {
        check_writable();
        load(b, edit_buf_);
        return edit_buf_;
    }
    Records& active() { return edit_buf_; }

    void split_active(std::uint32_t b, std::uint32_t new_id, std::size_t pivot,
                      bool continue_with_upper) {
        auto split = edit_buf_.begin() + static_cast<std::ptrdiff_t>(pivot);
        if (continue_with_upper) {
            // Persist the lower half to b's page; keep the upper in memory.
            store(b, edit_buf_.data(), pivot);
            edit_buf_.erase(edit_buf_.begin(), split);
        } else {
            store(new_id, edit_buf_.data() + pivot, edit_buf_.size() - pivot);
            edit_buf_.erase(split, edit_buf_.end());
        }
    }

    void commit(std::uint32_t b) {
        store(b, edit_buf_.data(), edit_buf_.size());
    }

    // -- durability hooks (no-ops without a WAL) -----------------------------

    /// Journals a grid refinement: the engine inserted a scale split at
    /// `coord` on `axis` (creating grid interval `interval`) and shifted
    /// every bucket's cell box. Replay repeats exactly that.
    void note_refine(std::size_t axis, std::uint32_t interval, double coord) {
        if (wal_ == nullptr) return;
        std::vector<std::byte> body;
        wal_put_u32(body, static_cast<std::uint32_t>(axis));
        wal_put_u32(body, interval);
        wal_put_f64(body, coord);
        wal_->append(WalRecordKind::kRefine, body);
    }

    /// Journals a bucket split: `from` shrank along `axis` so that its
    /// upper half became `to` (whose box the kCreate record carries).
    void note_split(std::uint32_t from, std::uint32_t to, std::size_t axis) {
        if (wal_ == nullptr) return;
        std::vector<std::byte> body;
        wal_put_u32(body, from);
        wal_put_u32(body, to);
        wal_put_u32(body, static_cast<std::uint32_t>(axis));
        wal_->append(WalRecordKind::kSplit, body);
    }

    /// Journals a commit marker: the grid is consistent at this LSN. The
    /// engine calls this after each completed insert/erase and after each
    /// block of a bulk load.
    void note_op_end() {
        if (wal_ == nullptr) return;
        wal_->append(WalRecordKind::kCommit, {});
    }

    /// The log (null when durability is off) — benches read its stats,
    /// tests force flushes.
    WriteAheadLog* wal() const { return wal_.get(); }

    // -- paged-only surface --------------------------------------------------

    /// Page id backing bucket `b` (for partitioned-storage experiments and
    /// the per-node pools of the concurrent QueryEngine).
    std::uint64_t page(std::uint32_t b) const { return metas_[b].page; }

    const BufferPool& pool() const { return pool_; }
    BufferPool& pool() { return pool_; }
    const std::string& path() const { return file_->path(); }

    /// Writes back every dirty page and syncs the file (and the log).
    void flush() {
        pool_.flush_all();
        if (wal_ != nullptr) wal_->flush();
    }

    /// Whether the file has a log (open, or left behind by a read-only
    /// open) — recorded in the catalog.
    bool journaled() const { return wal_ != nullptr || read_only_; }

    /// The data file's catalog (see PageFile::write_catalog); flush()
    /// first, so the pages it describes are on disk.
    bool has_catalog() const { return file_->has_catalog(); }
    void write_catalog(std::span<const std::byte> body) {
        file_->write_catalog(body);
    }

    /// Copies the raw payload bytes of bucket `b`'s page (through the
    /// pool) into `out` — the audit layer's window for header/roundtrip
    /// checks.
    void read_bucket_page(std::uint32_t b, std::vector<std::byte>& out) const {
        auto page = pool_.fetch(metas_[b].page);
        auto data = page.data();
        out.assign(data.begin(), data.end());
    }

    /// Durability-header probe straight from disk (bypassing the pool):
    /// whether the page's checksum verifies, its format version, and its
    /// stamped LSN. The audit layer's window for `paged.page.*` checks —
    /// flush() first, or dirty pool pages make the on-disk image stale
    /// (stale is fine for the checksum check: the previous image was
    /// written with a valid checksum too).
    struct PageProbe {
        bool checksum_ok = false;
        std::uint16_t version = 0;
        std::uint64_t lsn = 0;
    };
    PageProbe probe_page(std::uint64_t page_id) const {
        std::vector<std::byte> image(file_->page_size());
        PageProbe probe;
        probe.checksum_ok = file_->try_read(page_id, image);
        probe.version = page_version(image);
        probe.lsn = page_lsn(image);
        return probe;
    }

    /// Record count claimed by a raw page payload's header (no validation —
    /// audits compare this against the in-memory metadata before trusting
    /// it for a decode).
    static std::uint64_t page_record_count(std::span<const std::byte> data) {
        return load_le<std::uint64_t>(data.data());
    }

    /// Decodes a raw page payload (count header + records) into `out`.
    /// Usable on any copy of a bucket page — QueryEngine workers read
    /// pages through their own per-node pools and decode with this. A
    /// count word claiming more records than the payload holds (a
    /// checksum-valid but malformed page) throws CheckError.
    static void decode_page(std::span<const std::byte> data, Records& out) {
        const std::byte* p = data.data();
        const std::uint64_t count = load_le<std::uint64_t>(p);
        PGF_CHECK(count <= (data.size() - kCountBytes) / kRecordBytes,
                  "store: page count word exceeds the page");
        out.resize(count);
        for (std::uint64_t k = 0; k < count; ++k) {
            const std::byte* rec = p + kCountBytes + k * kRecordBytes;
            for (std::size_t i = 0; i < D; ++i) {
                out[k].point[i] =
                    std::bit_cast<double>(load_le<std::uint64_t>(rec + i * 8));
            }
            out[k].id = load_le<std::uint64_t>(rec + D * 8);
        }
    }

    /// Encodes `count` records into a raw page payload (the inverse of
    /// decode_page); bytes past the last record are left untouched.
    static void encode_page(std::span<std::byte> data,
                            const GridRecord<D>* records, std::size_t count) {
        std::byte* p = data.data();
        store_le<std::uint64_t>(p, count);
        encode_records(p + kCountBytes, {records, count});
    }

private:
    /// The records' (D+1) words each: the coordinates (bit-cast), then the
    /// id.
    static void encode_records(std::byte* out,
                               std::span<const GridRecord<D>> records) {
        for (const GridRecord<D>& record : records) {
            for (std::size_t i = 0; i < D; ++i) {
                store_le<std::uint64_t>(
                    out + i * 8, std::bit_cast<std::uint64_t>(record.point[i]));
            }
            store_le<std::uint64_t>(out + D * 8, record.id);
            out += kRecordBytes;
        }
    }

    void check_writable() const {
        PGF_CHECK(!read_only_,
                  "store: a journaled file opened without its log is "
                  "read-only (recover it with its log to modify it)");
    }

    void log_genesis(std::size_t page_size, const WalSetup<D>& setup) {
        std::vector<std::byte> body;
        wal_put_u32(body, static_cast<std::uint32_t>(D));
        wal_put_u64(body, page_size);
        wal_put_u64(body, capacity_);
        body.push_back(static_cast<std::byte>(kSplitRuleMidpoint));
        for (std::size_t i = 0; i < D; ++i) {
            wal_put_f64(body, setup.domain.lo[i]);
            wal_put_f64(body, setup.domain.hi[i]);
        }
        wal_->append(WalRecordKind::kGenesis, body);
    }

    /// Equal words that may separate two changed runs logged as one range
    /// (a range header costs one word).
    static constexpr std::size_t kMergeGapWords = 2;

    /// New bytes for the payload words at byte `offset` (a multiple of 8).
    struct NewWords {
        std::size_t offset;
        std::span<const std::byte> bytes;
    };

    /// Journals one page write as a kPage record and returns its LSN, for
    /// the page's header stamp. Copies into `frame` (page `page_id`'s
    /// payload) each 8-byte word of `writes` (ascending, disjoint) that
    /// differs from it, and logs the changed runs as ranges: runs
    /// separated by at most kMergeGapWords equal words merge into one
    /// range. A word outside `writes` must already be equal on both sides,
    /// and counts as an equal word. A write that changes nothing still
    /// logs its record: LSNs and page headers do not depend on the diff.
    std::uint64_t journal_changed_words(
        std::uint64_t page_id, std::span<std::byte> frame,
        std::initializer_list<NewWords> writes) {
        std::byte* to = frame.data();
        wal_body_.clear();
        wal_put_u64(wal_body_, page_id);
        std::size_t begin = 0;
        std::size_t end = 0;  // one past the open run's last word; 0 = none
        const auto log_run = [&] {
            wal_put_u32(wal_body_, static_cast<std::uint32_t>(8 * begin));
            wal_put_u32(wal_body_,
                        static_cast<std::uint32_t>(8 * (end - begin)));
            wal_body_.insert(wal_body_.end(), to + 8 * begin, to + 8 * end);
        };
        for (const NewWords& write : writes) {
            for (std::size_t k = 0; k < write.bytes.size(); k += 8) {
                const std::size_t w = (write.offset + k) / 8;
                if (std::memcmp(write.bytes.data() + k, to + 8 * w, 8) == 0) {
                    continue;
                }
                std::memcpy(to + 8 * w, write.bytes.data() + k, 8);
                if (end != 0 && w - end > kMergeGapWords) {
                    log_run();
                    end = 0;
                }
                if (end == 0) begin = w;
                end = w + 1;
            }
        }
        if (end != 0) log_run();
        return wal_->append(WalRecordKind::kPage, wal_body_);
    }

    /// Fetches bucket `b`'s page and checks its count word against the
    /// bucket's metadata.
    BufferPool::PageRef fetch_checked(std::uint32_t b) const {
        auto page = pool_.fetch(metas_[b].page);
        PGF_CHECK(page_record_count(page.data()) == metas_[b].count,
                  "page header disagrees with bucket metadata");
        return page;
    }

    void load(std::uint32_t b, Records& out) const {
        decode_page(fetch_checked(b).data(), out);
    }

    /// Encodes `count` records to bucket `b`'s page; with a WAL, into
    /// scratch first and through journal_changed_words. encode_page writes
    /// nothing past the encoded prefix, so the stale tail an erase leaves
    /// behind is equal on both sides.
    void store(std::uint32_t b, const GridRecord<D>* records,
               std::size_t count) {
        PGF_CHECK(count <= capacity_, "store: bucket exceeds its page");
        auto page = pool_.fetch(metas_[b].page);
        if (wal_ == nullptr) {
            encode_page(page.data(), records, count);
        } else {
            encoded_.resize(kCountBytes + count * kRecordBytes);
            encode_page(encoded_, records, count);
            page.set_lsn(journal_changed_words(metas_[b].page, page.data(),
                                               {{0, encoded_}}));
        }
        page.mark_dirty();
        metas_[b].count = count;
    }

    std::unique_ptr<PageFile> file_;
    std::unique_ptr<WriteAheadLog> wal_;  // null = durability off
    mutable BufferPool pool_;
    std::size_t capacity_;
    std::vector<Meta> metas_;
    Records edit_buf_;
    mutable Records read_buf_;
    std::vector<std::byte> encoded_;   ///< a journaled encode or append
    std::vector<std::byte> wal_body_;  ///< kPage body scratch
    bool read_only_ = false;           ///< journaled, opened without its log
};

}  // namespace pgf

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
// rule, 0 = midpoint, and the domain), a page image for every page
// encode, a metadata record for every bucket create / split / refinement,
// and a commit marker at each operation boundary. The BufferPool enforces
// WAL-before-data ordering on eviction (a dirty page's log records are
// flushed before its image may overwrite the on-disk pre-image), so after
// a crash anywhere, pgf/storage/recovery.hpp replays the committed log
// prefix into a state that passes the deep audit. Without a WalSetup the
// store behaves exactly as before — no log, no extra writes, and on-disk
// bytes identical to the pre-durability format apart from the page header.
//
// Edit protocol (see bucket_store.hpp): edit(b) decodes b's page into one
// in-memory buffer; the engine mutates it (an overflowing buffer may
// transiently exceed the page capacity — it lives in memory until splits
// produce page-sized halves); split_active encodes the non-continuing half
// to its page; commit(b) encodes the buffer back to b's page. A strict-
// capacity store: a bucket can never stay oversized, so the engine rejects
// inseparable duplicate overflows with CheckError.
#pragma once

#include <bit>
#include <cstdint>
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
            // Also journal the page's empty image: every committed bucket
            // then has a backing kPage record, so recovery can roll an
            // uncommitted on-disk image back to the committed state even
            // for buckets that never saw a record.
            store(id, nullptr, 0);
        }
        return id;
    }

    const CellBox<D>& cells(std::uint32_t b) const { return metas_[b].cells; }
    CellBox<D>& cells(std::uint32_t b) { return metas_[b].cells; }
    std::size_t size(std::uint32_t b) const { return metas_[b].count; }

    const Records& read(std::uint32_t b) const {
        // Inside a batch session the active bucket's page is stale by
        // design; its truth is the edit buffer.
        if (session_open_ && b == active_) return edit_buf_;
        load(b, read_buf_);
        return read_buf_;
    }

    Records& edit(std::uint32_t b) {
        PGF_CHECK(!read_only_,
                  "store: a journaled file opened without its log is "
                  "read-only (recover it with its log to modify it)");
        if (batch_) {
            if (session_open_ && active_ == b) return edit_buf_;
            sync_session();  // persist the previous bucket before switching
            active_ = b;
            load(b, edit_buf_);
            session_open_ = true;
            return edit_buf_;
        }
        active_ = b;
        load(b, edit_buf_);
        return edit_buf_;
    }
    Records& active() { return edit_buf_; }

    // -- batch sessions ------------------------------------------------------
    //
    // The streaming bulk loader feeds records in Hilbert order, so runs of
    // consecutive edit/commit pairs land in the same bucket. In batch mode
    // commit() only updates the bucket's metadata count and defers the
    // O(page) encode until the session moves to a different bucket (or the
    // batch ends / the file is flushed / the page is read raw), turning
    // ~capacity encodes + decodes per bucket into one of each. Observable
    // behavior is unchanged: read()/size() serve the live buffer and
    // metadata, and every page is consistent again after end_batch().
    //
    // With a WAL, each session sync also logs the page image and a commit
    // marker — a crash mid-batch recovers to the last synced boundary.

    /// Enters batch mode. Only one batch may be open at a time.
    void begin_batch() {
        PGF_CHECK(!batch_, "begin_batch: batch already open");
        batch_ = true;
        session_open_ = false;
        session_dirty_ = false;
    }

    /// Persists any pending session and leaves batch mode — also when the
    /// final sync throws.
    void end_batch() {
        PGF_CHECK(batch_, "end_batch: no batch open");
        struct Close {
            PagedBucketStore& store;
            ~Close() {
                store.batch_ = store.session_open_ = store.session_dirty_ =
                    false;
            }
        } close{*this};
        sync_session();
    }

    void split_active(std::uint32_t b, std::uint32_t new_id, std::size_t pivot,
                      bool continue_with_upper) {
        auto split = edit_buf_.begin() + static_cast<std::ptrdiff_t>(pivot);
        if (continue_with_upper) {
            // Persist the lower half to b's page; keep the upper in memory.
            store(b, edit_buf_.data(), pivot);
            edit_buf_.erase(edit_buf_.begin(), split);
            active_ = new_id;
        } else {
            store(new_id, edit_buf_.data() + pivot, edit_buf_.size() - pivot);
            edit_buf_.erase(split, edit_buf_.end());
        }
        // Either way the continuing half now differs from its page.
        if (batch_) session_dirty_ = true;
    }

    void commit(std::uint32_t b) {
        if (batch_) {
            PGF_CHECK(session_open_ && b == active_,
                      "batch commit outside the open session");
            PGF_CHECK(edit_buf_.size() <= capacity_,
                      "store: bucket exceeds its page");
            metas_[b].count = edit_buf_.size();
            session_dirty_ = true;
            return;
        }
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
    /// engine calls this after each completed insert/erase; inside a batch
    /// session the marker is deferred to the next sync_session() (the
    /// per-record granularity would defeat the batch).
    void note_op_end() {
        if (wal_ == nullptr || batch_) return;
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
        sync_session();
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
        sync_session();  // an open batch session's page is stale until synced
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
        for (std::size_t k = 0; k < count; ++k) {
            std::byte* rec = p + kCountBytes + k * kRecordBytes;
            for (std::size_t i = 0; i < D; ++i) {
                store_le<std::uint64_t>(
                    rec + i * 8,
                    std::bit_cast<std::uint64_t>(records[k].point[i]));
            }
            store_le<std::uint64_t>(rec + D * 8, records[k].id);
        }
    }

private:
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

    /// Journals bucket `b`'s freshly encoded payload and returns the
    /// record's LSN (0 without a WAL) for the page's header stamp.
    std::uint64_t log_page(std::uint64_t page_id,
                           std::span<const std::byte> payload) const {
        wal_body_.clear();
        wal_put_u64(wal_body_, page_id);
        wal_body_.insert(wal_body_.end(), payload.begin(), payload.end());
        return wal_->append(WalRecordKind::kPage, wal_body_);
    }

    void load(std::uint32_t b, Records& out) const {
        auto page = pool_.fetch(metas_[b].page);
        const std::byte* data = page.data().data();
        const std::uint64_t count = load_le<std::uint64_t>(data);
        PGF_CHECK(count == metas_[b].count,
                  "page header disagrees with bucket metadata");
        decode_page(page.data(), out);
    }

    void store(std::uint32_t b, const GridRecord<D>* records,
               std::size_t count) {
        PGF_CHECK(count <= capacity_, "store: bucket exceeds its page");
        auto page = pool_.fetch(metas_[b].page);
        encode_page(page.data(), records, count);
        if (wal_ != nullptr) {
            page.set_lsn(log_page(metas_[b].page, page.data()));
        }
        page.mark_dirty();
        metas_[b].count = count;
    }

    /// Encodes the open batch session's buffer back to its page (no-op
    /// when nothing is pending). const because it only refreshes the page
    /// cache and the mirrored count — observable state doesn't change.
    /// With a WAL this is also a commit point: the batch reaches a
    /// consistent boundary exactly when a session syncs.
    void sync_session() const {
        if (!session_open_ || !session_dirty_) return;
        PGF_CHECK(edit_buf_.size() <= capacity_,
                  "store: bucket exceeds its page");
        auto page = pool_.fetch(metas_[active_].page);
        encode_page(page.data(), edit_buf_.data(), edit_buf_.size());
        if (wal_ != nullptr) {
            page.set_lsn(log_page(metas_[active_].page, page.data()));
        }
        page.mark_dirty();
        metas_[active_].count = edit_buf_.size();
        session_dirty_ = false;
        if (wal_ != nullptr) wal_->append(WalRecordKind::kCommit, {});
    }

    std::unique_ptr<PageFile> file_;
    mutable std::unique_ptr<WriteAheadLog> wal_;  // null = durability off
    mutable BufferPool pool_;
    std::size_t capacity_;
    mutable std::vector<Meta> metas_;
    std::uint32_t active_ = 0;
    Records edit_buf_;
    mutable Records read_buf_;
    mutable std::vector<std::byte> wal_body_;  ///< kPage encode scratch
    bool read_only_ = false;        ///< journaled, opened without its log
    bool batch_ = false;            ///< inside begin_batch()/end_batch()
    bool session_open_ = false;     ///< edit_buf_ holds active_'s records
    mutable bool session_dirty_ = false;  ///< edit_buf_ differs from page
};

}  // namespace pgf

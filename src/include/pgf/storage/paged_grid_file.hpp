// Disk-resident grid file: GridFileCore over a PagedBucketStore — bucket
// contents live in pages of a PageFile, read and written through the LRU
// BufferPool; only the access structure (scales, directory, bucket
// metadata) stays in memory. This is the classic deployment the paper
// assumes ("the scale and directory of the grid file are stored only on
// the local disk of the coordinator", Sec. 3.5, with data buckets as disk
// blocks).
//
// One bucket == one page, and bucket b lives on page b; the bucket
// capacity follows from the page size and the fixed record encoding (D
// coordinates + id, 8 bytes each). All split/refinement logic is the
// shared engine's (grid_file_core.hpp) — given the same insertion
// sequence, this file and an in-memory GridFile with the same capacity
// produce byte-identical scales, directory, and bucket numbering
// (asserted by tests/storage/test_backend_equivalence).
//
// The file reopens itself. flush() writes every dirty page back and then
// a catalog after the last page (PageFile::write_catalog) with what the
// pages do not hold, little endian:
//
//   u32 dims | u64 page size | u64 capacity | u8 split rule (0 = midpoint)
//   | u8 journaled (1 = the file has a write-ahead log)
//   per axis: f64 domain lo, f64 domain hi
//   per axis: u32 split count, then the splits (f64, ascending)
//   u32 bucket count, then per bucket: per axis u32 cell lo, u32 cell hi;
//   u64 record count
//
// The OpenTag constructor reads it back through the RestoreTag
// constructor crash recovery uses (the splits regrow the scales, retile()
// rebuilds the directory from the boxes), so the catalog and the log
// share one restore path. The first page write after a flush drops the
// catalog: a file changed since its last flush does not open (recover it
// from its log instead), and a flush that finds its catalog still in
// place writes nothing. A journaled file opened without its log is
// read-only — a later replay of the log would silently revert any change.
//
// This engine is the *working* store whose buffer-pool statistics expose
// real I/O counts (see bench/ext_io_validation for the experiment that
// validates the paper's response-time metric against actual page misses).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/grid_file_core.hpp"
#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/storage/paged_bucket_store.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/storage/wal.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

template <std::size_t D>
class PagedGridFile : public GridFileCore<D, PagedBucketStore<D>> {
    using Core = GridFileCore<D, PagedBucketStore<D>>;

public:
    using BucketId = std::uint32_t;
    using Store = PagedBucketStore<D>;

    struct Config {
        std::size_t page_size = 4096;
        std::size_t pool_pages = 128;
        /// Write-ahead log path; empty (the default) disables durability —
        /// the historical behavior, with on-disk output byte-identical to
        /// the same build without this field.
        std::string wal_path;
        /// Crash-injection hook for the durability tests (see
        /// pgf/util/file.hpp): page writes and log flushes spend its
        /// budget.
        FaultInjector* fault_injector = nullptr;
    };

    /// Creates (truncating) the backing file at `path`.
    PagedGridFile(const std::string& path, const Rect<D>& domain,
                  Config config = {})
        : Core(domain, checked_capacity(config.page_size), path,
               config.page_size, config.pool_pages,
               wal_setup(domain, config)),
          config_(std::move(config)) {
        if (this->store_.wal() != nullptr) {
            // Baseline commit: the empty grid (genesis + root bucket) is a
            // consistent recovery point, and flushing it now means a crash
            // at *any* later write finds a committed prefix in the log.
            this->store_.note_op_end();
            this->store_.wal()->flush();
        }
    }

    /// Rebuilds a grid file from the crash state at `path` + the log at
    /// `config.wal_path` (required): replays the committed log prefix over
    /// the data file (see pgf/storage/recovery.hpp), then reconstructs the
    /// access structure. The log stays open — the recovered file accepts
    /// new operations, journaled onto the same log.
    struct RecoverTag {};
    PagedGridFile(RecoverTag, const std::string& path, Config config)
        : PagedGridFile(replay_wal<D>(path, config.wal_path),
                        config) {}  // copy, not move: argument evaluation
                                    // order is unspecified, and the replay
                                    // expression reads config.wal_path

    /// Reopens the flushed file at `path` from its catalog (see the file
    /// comment); the page size comes from the file. Throws CheckError when
    /// the file has no intact catalog, or one that does not describe a
    /// D-dimensional grid file tiling its pages.
    struct OpenTag {};
    PagedGridFile(OpenTag, const std::string& path,
                  std::size_t pool_pages = Config{}.pool_pages)
        : PagedGridFile(read_catalog(path), pool_config(pool_pages)) {}

    const Config& config() const { return config_; }

    /// What recovery replayed (all zeros for normally constructed files).
    const ReplayStats& recovery_stats() const { return recovery_stats_; }

    /// Records per bucket page — the capacity an in-memory GridFile must
    /// be configured with for cell-for-cell comparison with this file.
    std::size_t capacity() const { return this->bucket_capacity_; }

    /// Page id backing bucket `b` (for partitioned-storage experiments and
    /// QueryEngine's per-node pools).
    std::uint64_t bucket_page(BucketId b) const {
        return this->store_.page(b);
    }

    const BufferPool& pool() const { return this->store_.pool(); }
    BufferPool& pool() { return this->store_.pool(); }

    /// Path of the backing page file.
    const std::string& path() const { return this->store_.path(); }

    /// Writes back every dirty page, syncs the file (and the log), and
    /// writes the catalog unless the one on disk is still current. Call
    /// before other readers (e.g. QueryEngine's per-node pools) open the
    /// backing file, and before a reopen.
    void flush() {
        this->store_.flush();
        if (!this->store_.has_catalog()) {
            this->store_.write_catalog(catalog());
        }
    }

    /// Copies the raw payload bytes of bucket `b`'s page into `out`
    /// (audit hook).
    void read_bucket_page(BucketId b, std::vector<std::byte>& out) const {
        this->store_.read_bucket_page(b, out);
    }

    /// Durability-header probe of bucket `b`'s page straight from disk,
    /// bypassing the pool (audit hook for `paged.page.checksum` /
    /// `paged.page.lsn`).
    typename Store::PageProbe probe_bucket_page(BucketId b) const {
        return this->store_.probe_page(this->store_.page(b));
    }

    /// The write-ahead log (null when durability is off, and for a
    /// journaled file reopened without it).
    WriteAheadLog* wal() const { return this->store_.wal(); }

    /// Whether the file has a log — open, or left behind by a reopen
    /// from the catalog, which then makes the file read-only.
    bool journaled() const { return this->store_.journaled(); }

private:
    /// Validates the page size before the store (and its backing file) is
    /// constructed; returns the resulting bucket capacity.
    static std::size_t checked_capacity(std::size_t page_size) {
        const std::size_t capacity = Store::capacity_for(page_size);
        PGF_CHECK(capacity >= 2,
                  "page size too small for at least two records");
        return capacity;
    }

    static WalSetup<D> wal_setup(const Rect<D>& domain,
                                 const Config& config) {
        WalSetup<D> setup;
        setup.path = config.wal_path;
        setup.injector = config.fault_injector;
        setup.domain = domain;
        return setup;
    }

    static Config pool_config(std::size_t pool_pages) {
        Config config;
        config.pool_pages = pool_pages;
        return config;
    }

    /// Reopen delegate: the log replay or the catalog read already
    /// happened (in the delegating constructor's argument expression);
    /// adopt its results.
    PagedGridFile(RecoveredGrid<D>&& rec, Config config)
        : Core(typename Core::RestoreTag{}, rec.domain, rec.bucket_capacity,
               rec.refines, typename Store::OpenTag{},
               std::move(rec.file), std::move(rec.metas), std::move(rec.wal),
               config.pool_pages, rec.read_only),
          config_(std::move(config)),
          recovery_stats_(rec.stats) {
        config_.page_size = rec.page_size;
    }

    /// The catalog body (file comment) for the current structure.
    std::vector<std::byte> catalog() const {
        std::vector<std::byte> out;
        wal_put_u32(out, static_cast<std::uint32_t>(D));
        wal_put_u64(out, config_.page_size);
        wal_put_u64(out, this->bucket_capacity_);
        out.push_back(static_cast<std::byte>(kSplitRuleMidpoint));
        out.push_back(static_cast<std::byte>(this->store_.journaled()));
        for (std::size_t i = 0; i < D; ++i) {
            wal_put_f64(out, this->domain_.lo[i]);
            wal_put_f64(out, this->domain_.hi[i]);
        }
        for (const LinearScale& scale : this->scales_) {
            wal_put_u32(out, static_cast<std::uint32_t>(scale.splits().size()));
            for (double split : scale.splits()) wal_put_f64(out, split);
        }
        const auto buckets = static_cast<BucketId>(this->bucket_count());
        wal_put_u32(out, buckets);
        out.reserve(out.size() + buckets * (8 * D + 8));
        for (BucketId b = 0; b < buckets; ++b) {
            PGF_CHECK(this->store_.page(b) == b,
                      "catalog: bucket " + std::to_string(b) +
                          " does not live on its own page number");
            const CellBox<D>& cells = this->store_.cells(b);
            for (std::size_t i = 0; i < D; ++i) {
                wal_put_u32(out, cells.lo[i]);
                wal_put_u32(out, cells.hi[i]);
            }
            wal_put_u64(out, this->store_.size(b));
        }
        return out;
    }

    /// Bounds-checked cursor over a catalog body: every field, and every
    /// count before it sizes anything, is checked against the bytes left.
    struct CatalogReader {
        std::span<const std::byte> in;
        std::size_t off = 0;

        void need(std::uint64_t bytes) const {
            PGF_CHECK(bytes <= in.size() - off, "catalog: truncated body");
        }
        std::uint8_t u8() {
            need(1);
            return std::to_integer<std::uint8_t>(in[off++]);
        }
        std::uint32_t u32() {
            need(4);
            return wal_get_u32(in, off);
        }
        std::uint64_t u64() {
            need(8);
            return wal_get_u64(in, off);
        }
        double f64() {
            need(8);
            return wal_get_f64(in, off);
        }
    };

    /// Reads and checks the catalog of the file at `path`. The scales come
    /// back as the refinements that regrow them (the k-th split of an axis
    /// splits interval k); the directory tiling is retile()'s to check.
    static RecoveredGrid<D> read_catalog(const std::string& path) {
        RecoveredGrid<D> out;
        out.file = std::make_unique<PageFile>(PageFile::open(path));
        const std::vector<std::byte> body = out.file->read_catalog();
        CatalogReader in{body};
        PGF_CHECK(in.u32() == D,
                  "catalog: " + path + " holds a grid of another dimension "
                  "count");
        out.page_size = static_cast<std::size_t>(in.u64());
        out.bucket_capacity = static_cast<std::size_t>(in.u64());
        PGF_CHECK(out.page_size == out.file->page_size() &&
                      Store::capacity_for(out.page_size) ==
                          out.bucket_capacity,
                  "catalog: page size or capacity disagrees with the pages");
        PGF_CHECK(in.u8() == kSplitRuleMidpoint,
                  "catalog: unknown split rule in " + path);
        const std::uint8_t journaled = in.u8();
        PGF_CHECK(journaled <= 1, "catalog: bad journaled flag");
        out.read_only = journaled == 1;
        for (std::size_t i = 0; i < D; ++i) {
            out.domain.lo[i] = in.f64();
            out.domain.hi[i] = in.f64();
        }
        for (std::uint32_t axis = 0; axis < D; ++axis) {
            const std::uint32_t splits = in.u32();
            in.need(std::uint64_t{splits} * 8);
            for (std::uint32_t k = 0; k < splits; ++k) {
                out.refines.push_back({axis, k, in.f64()});
            }
        }
        const std::uint32_t buckets = in.u32();
        in.need(std::uint64_t{buckets} * (8 * D + 8));
        PGF_CHECK(buckets == out.file->page_count(),
                  "catalog: bucket count disagrees with the page count");
        out.metas.resize(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b) {
            typename Store::Meta& meta = out.metas[b];
            meta.page = b;
            for (std::size_t i = 0; i < D; ++i) {
                meta.cells.lo[i] = in.u32();
                meta.cells.hi[i] = in.u32();
            }
            meta.count = static_cast<std::size_t>(in.u64());
            PGF_CHECK(meta.count <= out.bucket_capacity,
                      "catalog: bucket record count exceeds the capacity");
        }
        PGF_CHECK(in.off == body.size(), "catalog: trailing bytes");
        return out;
    }

    Config config_;
    ReplayStats recovery_stats_{};
};

/// Dimension count of the grid in a flushed paged file, from its catalog —
/// lets a CLI dispatch to the right PagedGridFile<D> without external
/// metadata.
inline std::uint32_t paged_file_dims(const std::string& path) {
    const std::vector<std::byte> body = PageFile::open(path).read_catalog();
    PGF_CHECK(body.size() >= 4, "catalog: truncated body");
    return load_le<std::uint32_t>(body.data());
}

}  // namespace pgf

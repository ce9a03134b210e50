// Disk-resident grid file: GridFileCore over a PagedBucketStore — bucket
// contents live in pages of a PageFile, read and written through the LRU
// BufferPool; only the access structure (scales, directory, bucket
// metadata) stays in memory. This is the classic deployment the paper
// assumes ("the scale and directory of the grid file are stored only on
// the local disk of the coordinator", Sec. 3.5, with data buckets as disk
// blocks).
//
// One bucket == one page; the bucket capacity follows from the page size
// and the fixed record encoding (D coordinates + id, 8 bytes each). All
// split/refinement logic is the shared engine's (grid_file_core.hpp) —
// given the same insertion sequence, this file and an in-memory GridFile
// with the same capacity produce byte-identical scales, directory, and
// bucket numbering (asserted by tests/storage/test_backend_equivalence).
//
// The in-memory structure is rebuilt on open either via the snapshot path
// (save_grid_file/load_grid_file) or by the RecoverTag constructor, which
// replays the write-ahead log. This engine is the *working* store whose
// buffer-pool statistics expose real I/O counts (see bench/ext_io_validation
// for the experiment that validates the paper's response-time metric
// against actual page misses).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/grid_file_core.hpp"
#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/paged_bucket_store.hpp"
#include "pgf/storage/recovery.hpp"
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
        : PagedGridFile(RecoverTag{},
                        replay_wal<D>(path, config.wal_path),
                        config) {}  // copy, not move: argument evaluation
                                    // order is unspecified, and the replay
                                    // expression reads config.wal_path

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

    /// Writes back every dirty page and syncs the file. Call before other
    /// readers (e.g. QueryEngine's per-node pools) open the backing file.
    void flush() { this->store_.flush(); }

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

    /// The write-ahead log (null when durability is off).
    WriteAheadLog* wal() const { return this->store_.wal(); }

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

    /// Recovery delegate: the replay already happened (in the delegating
    /// constructor's argument expression); adopt its results.
    PagedGridFile(RecoverTag, RecoveredGrid<D>&& rec, Config config)
        : Core(typename Core::RestoreTag{}, rec.domain, rec.bucket_capacity,
               rec.refines, typename Store::OpenTag{},
               std::move(rec.file), std::move(rec.metas), std::move(rec.wal),
               config.pool_pages),
          config_(std::move(config)),
          recovery_stats_(rec.stats) {
        config_.page_size = rec.page_size;
    }

    Config config_;
    ReplayStats recovery_stats_{};
};

}  // namespace pgf

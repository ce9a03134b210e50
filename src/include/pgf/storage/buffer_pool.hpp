// Latched, thread-safe LRU buffer pool over a PageFile.
//
// Pages are pinned through RAII PageRef handles; unpinned pages stay
// cached until LRU evicts them (only pin == 0 frames are evictable).
// Dirty pages are written back on eviction and on flush_all().
// Statistics (hits/misses/evictions/writebacks) feed the storage
// micro-benchmarks, the serving reports and tests.
//
// Durability: frames hold full pages including the 16-byte header of
// pgf/storage/page.hpp, but PageRef::data() exposes only the *payload* —
// the layers above never see (or clobber) the checksum/LSN fields.
// PageRef::set_lsn() stamps the frame's LSN after its image was logged,
// and the pool enforces WAL-before-data ordering: a dirty frame whose
// page LSN exceeds wal->durable_lsn() forces a log flush before its bytes
// may reach the data file (eviction and flush_all alike). With no WAL
// attached (the default) page LSNs stay 0 and the ordering hook is inert.
//
// Replacement: LRU, kept as an intrusive doubly-linked list of frame
// indices in access order (head = least recently used). A hit, a miss
// fill and an allocation move their frame to the tail in O(1); the
// victim is the first unpinned frame from the head, so an eviction costs
// O(pinned frames at the cold end + 1). The list order equals the order
// of the historical per-access stamps, so the eviction/writeback sequence
// is the one the pool has always had (golden-tested in
// tests/storage/test_buffer_pool.cpp). Free frames come off a stack.
//
// Concurrency (lock discipline machine-checked via pgf/util/annotations.hpp):
//   - One pool latch guards the page table, the frame metadata (pin
//     counts, dirty bits, the LRU list) and all PageFile I/O: misses,
//     evictions and flushes serialize on the latch. (PageFile::read is
//     positional and const, so the miss read itself needs no lock; it
//     still runs under the latch because the frame it fills does.)
//   - A PageRef captures its frame's payload span at pin time; readers of
//     a pinned page touch no shared pool state at all. A frame's bytes are
//     stable while pinned because eviction skips pin > 0 frames and the
//     backing vector is sized once, on the frame's first use.
//   - Concurrent access to one page's *bytes* is the caller's problem
//     (page-level latching lives above this layer); concurrent fetch /
//     mark_dirty / unpin / allocate on the pool itself are safe.
//   - Lock ordering: the pool latch may be held while the WAL's own latch
//     is taken (the write-back ordering flush); the WAL never calls back
//     into a pool, so the order is acyclic.
//   - Counters are relaxed atomics so stats() never blocks; single-threaded
//     callers observe exactly the pre-refactor values.
//
// When every frame is pinned, fetch/allocate throw CheckError ("pool
// exhausted") rather than wait — a deliberate choice: the single-threaded
// engine treats exhaustion as a configuration bug, and concurrent callers
// bound their in-flight pins (see tests/storage/test_buffer_pool_concurrent).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "pgf/storage/page.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/storage/wal.hpp"
#include "pgf/util/annotations.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

class BufferPool {
public:
    /// `capacity` = maximum resident pages; must be >= 1. `wal`, when
    /// given, is the log whose durable horizon gates dirty-page write-back
    /// (WAL-before-data); the pool does not own it.
    BufferPool(PageFile& file, std::size_t capacity,
               WriteAheadLog* wal = nullptr);

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;
    ~BufferPool();

    /// RAII pin on a buffered page. The handle owns a snapshot of the
    /// frame's payload span and page id, taken under the pool latch at pin
    /// time — data()/page_id() are lock-free and safe to use concurrently
    /// with any pool operation (the pinned frame cannot be evicted).
    class PageRef {
    public:
        PageRef(PageRef&& o) noexcept
            : pool_(o.pool_),
              frame_(o.frame_),
              data_(o.data_),
              page_id_(o.page_id_) {
            o.pool_ = nullptr;
        }
        PageRef& operator=(PageRef&&) = delete;
        PageRef(const PageRef&) = delete;
        PageRef& operator=(const PageRef&) = delete;
        ~PageRef() {
            if (pool_ != nullptr) pool_->unpin(frame_);
        }

        /// The page *payload* (page size minus the durability header —
        /// the header fields are the storage layer's, not the caller's).
        std::span<std::byte> data() { return data_; }
        std::span<const std::byte> data() const { return data_; }
        std::uint64_t page_id() const { return page_id_; }
        /// Marks the page for write-back (takes the pool latch).
        void mark_dirty();
        /// Stamps the frame's page LSN — call after logging the page's
        /// image so write-back ordering can hold it behind the WAL
        /// (takes the pool latch).
        void set_lsn(std::uint64_t lsn);

    private:
        friend class BufferPool;
        PageRef(BufferPool* pool, std::size_t frame, std::span<std::byte> data,
                std::uint64_t page_id)
            : pool_(pool), frame_(frame), data_(data), page_id_(page_id) {}
        BufferPool* pool_;
        std::size_t frame_;
        std::span<std::byte> data_;
        std::uint64_t page_id_;
    };

    /// Fetches (and pins) page `id`, reading it from the file on a miss.
    /// Safe for concurrent callers; two threads fetching the same page
    /// share one frame (and each holds its own pin on it).
    PageRef fetch(std::uint64_t id) PGF_EXCLUDES(latch_);

    /// Allocates a fresh zeroed page in the file and pins it. The frame is
    /// taken first, so an exhausted pool throws without growing the file.
    PageRef allocate() PGF_EXCLUDES(latch_);

    /// Writes back every dirty page and syncs the file, flushing the WAL
    /// past the dirtiest LSN first (write-back ordering). Pinned pages are
    /// no obstacle: they are flushed like any other dirty page and stay
    /// resident with their pins intact. With writers concurrently mutating
    /// a pinned page the flushed image is an unspecified interleaving —
    /// call flush_all at quiescent points when durability of the latest
    /// bytes matters.
    void flush_all() PGF_EXCLUDES(latch_);

    std::size_t capacity() const { return capacity_; }
    std::size_t resident() const PGF_EXCLUDES(latch_);
    /// Number of frames currently holding at least one pin. A quiescent
    /// pool (no live PageRef) reports 0 — the audit layer checks this.
    std::size_t pinned_frames() const PGF_EXCLUDES(latch_);
    /// Sorted ids of the pages currently resident — test/audit hook used
    /// by the golden eviction-sequence tests.
    std::vector<std::uint64_t> resident_pages() const PGF_EXCLUDES(latch_);

    std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }
    std::uint64_t evictions() const {
        return evictions_.load(std::memory_order_relaxed);
    }
    std::uint64_t writebacks() const {
        return writebacks_.load(std::memory_order_relaxed);
    }

    /// Counter snapshot (see stats()/reset()).
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;

        /// Demand hit fraction in [0, 1]; 0 when the pool saw no fetches.
        double hit_rate() const {
            const std::uint64_t accesses = hits + misses;
            return accesses == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(accesses);
        }
    };

    Stats stats() const {
        return {hits(), misses(), evictions(), writebacks()};
    }

    /// Snapshot-and-zero: returns the counters accumulated since the last
    /// reset and clears them, so callers measuring per-phase deltas (e.g.
    /// QueryEngine's per-batch node-pool I/O) need no external
    /// bookkeeping. Page contents and recency are untouched. Each counter
    /// is exchanged atomically; take the snapshot at a phase boundary (no
    /// in-flight operations) when the four values must be mutually
    /// consistent.
    Stats reset();

private:
    struct Frame {
        std::uint64_t page_id = 0;
        std::vector<std::byte> data;  // full page: header + payload
        std::uint32_t pin_count = 0;
        bool dirty = false;
        bool in_use = false;
    };

    /// Returns a frame ready for reuse: a never-used frame off the free
    /// stack if one exists, else the least recently used unpinned frame
    /// (written back first when dirty). Throws CheckError when every frame
    /// is pinned.
    std::size_t grab_frame() PGF_REQUIRES(latch_);
    /// Evicts the page held by `frame` (WAL flush per write-back ordering,
    /// writeback if dirty, table erase, LRU unlink, counters).
    void evict_frame(std::size_t frame) PGF_REQUIRES(latch_);
    /// Returns a grabbed-but-unfilled frame to the free stack — the
    /// exception path when the file read of a miss fill or the file
    /// growth of an allocation fails: the frame must not leak out of
    /// circulation.
    void release_frame(std::size_t frame) PGF_REQUIRES(latch_);
    /// Takes a filled frame into the page table as page `id`, pinned once
    /// and most recently used.
    PageRef install(std::size_t frame, std::uint64_t id) PGF_REQUIRES(latch_);
    /// LRU list maintenance; a frame is linked exactly while it is in use.
    void lru_unlink(std::size_t frame) PGF_REQUIRES(latch_);
    void lru_append(std::size_t frame) PGF_REQUIRES(latch_);
    void unpin(std::size_t frame) PGF_EXCLUDES(latch_);
    void mark_dirty_frame(std::size_t frame) PGF_EXCLUDES(latch_);
    void set_frame_lsn(std::size_t frame, std::uint64_t lsn)
        PGF_EXCLUDES(latch_);
    std::span<std::byte> payload_of(Frame& f) PGF_REQUIRES(latch_) {
        return std::span<std::byte>(f.data).subspan(kPageHeaderBytes);
    }

    PageFile& file_ PGF_PT_GUARDED_BY(latch_);
    const std::size_t capacity_;
    /// Write-back ordering gate; nullptr = durability off. The pointer is
    /// immutable after construction; the WAL has its own latch.
    WriteAheadLog* const wal_;
    mutable Mutex latch_;
    std::vector<Frame> frames_ PGF_GUARDED_BY(latch_);
    std::unordered_map<std::uint64_t, std::size_t> table_
        PGF_GUARDED_BY(latch_);  // page -> frame
    std::vector<std::size_t> free_ PGF_GUARDED_BY(latch_);  // never-used frames
    /// The LRU list: per-frame links, head = least recently used, tail =
    /// most recently used, kNoFrame at either end.
    static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);
    std::vector<std::size_t> lru_prev_ PGF_GUARDED_BY(latch_);
    std::vector<std::size_t> lru_next_ PGF_GUARDED_BY(latch_);
    std::size_t lru_head_ PGF_GUARDED_BY(latch_) = kNoFrame;
    std::size_t lru_tail_ PGF_GUARDED_BY(latch_) = kNoFrame;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> writebacks_{0};
};

}  // namespace pgf

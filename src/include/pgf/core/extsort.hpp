// External Hilbert sort — the out-of-core half of the build pipeline
// (ROADMAP item 3, DESIGN.md §4i).
//
// Problem: bulk-loading a paged grid file in arrival order touches
// buckets all over the directory, so every insert is a potential page
// miss and the build degenerates to random I/O once the dataset outgrows
// the BufferPool. Sorting the input along the Hilbert curve first makes
// consecutive records land in the same (or an adjacent) bucket, which the
// paged store's batch sessions turn into one page encode per bucket —
// but a 10⁷–10⁸-record input doesn't fit in memory, so the sort itself
// must be external.
//
// Classic three-phase pipeline, streamed end to end:
//
//   1. Run formation — one fixed-size chunk of `chunk_records` points at
//      a time: tag each with its Hilbert key (pgf/sfc/hilbert.hpp over a
//      2^bits-per-axis quantization of the domain) on every ThreadPool
//      lane, radix-sort the chunk by key (a stable LSD sort, one slice per
//      lane), and spill it as one sorted run file, written straight from
//      memory. Chunk boundaries depend only on chunk_records, and a stable
//      sort has one output, so the run set is bit-deterministic whatever
//      the thread count or scheduling.
//   2. Merge reduction — while more than max_fan_in runs exist, k-way
//      merge batches of max_fan_in runs into longer runs (loser tree,
//      bounded per-run read buffers), deleting inputs as they are
//      consumed so disk stays ~2x the data size.
//   3. Streamed final merge — ExtSorter is itself a PointSource. The first
//      next() starts the final loser-tree merge on a thread of its own,
//      which merges at most two merge_buffer_records blocks ahead of the
//      caller; next() copies points out of the block at hand. The
//      grid-file loader consumes the sorted sequence while it is being
//      merged, without it ever being materialized.
//
// Duplicate keys stay in input order: every record carries its global
// sequence number and the sort/merge order is (key, seq), a total order
// (a chunk is filled in seq order, so its stable sort by key is already
// (key, seq) order). Peak memory = 2 * chunk_records records (the chunk
// and the radix sort's ping-pong buffer, whatever the lane count) during
// run formation, or fan_in * merge_buffer_records records during merges
// (plus three blocks of merge_buffer_records points in the final one) —
// all independent of N.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "pgf/core/point_source.hpp"
#include "pgf/geom/point.hpp"
#include "pgf/sfc/hilbert.hpp"
#include "pgf/util/bounded_queue.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/file.hpp"
#include "pgf/util/temp_dir.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf::extsort {

struct ExtSortConfig {
    /// Records per formation chunk == per initial run. Fixed boundaries
    /// make the run set independent of thread count.
    std::size_t chunk_records = 1 << 20;
    /// Hilbert quantization bits per axis; 0 picks min(16, 64/D).
    unsigned hilbert_bits = 0;
    /// Records buffered per run during merges (bounds merge memory at
    /// fan_in * merge_buffer_records * record size).
    std::size_t merge_buffer_records = 1 << 14;
    /// Maximum runs merged at once; more runs force reduction passes.
    std::size_t max_fan_in = 64;
    /// Pool that keys and sorts each chunk on all its lanes (null =
    /// serial). The sorter never submits nested work, so a shared pool is
    /// fine.
    ThreadPool* pool = nullptr;
    /// Where run files spill; empty = a private RAII temp directory.
    std::filesystem::path temp_dir;
};

struct ExtSortStats {
    std::uint64_t records = 0;      ///< total records sorted
    std::size_t initial_runs = 0;   ///< runs written by formation
    std::uint64_t spill_bytes = 0;  ///< bytes written across all phases
    std::size_t merge_passes = 0;   ///< reduction passes before the final merge
    std::size_t final_fan_in = 0;   ///< runs feeding the streamed merge
};

namespace detail {

// Run-file records are the sorter's records as they lie in memory: u64
// key, u64 seq, then the payload (the D point doubles), in host byte
// order. Run files are private scratch that one process writes and reads
// back. Key and seq sit at fixed offsets, so the merge machinery below is
// dimension-erased — only `record_bytes` varies.

/// Bytes of a record's sort key (key and seq) before its payload.
inline constexpr std::size_t kKeyBytes = 16;

/// Buffered sequential writer for one run file.
class RunWriter {
public:
    RunWriter(const std::filesystem::path& path, std::size_t record_bytes,
              std::size_t buffer_records);
    /// Appends `count` consecutive records.
    void append(const std::byte* records, std::size_t count);
    /// Writes out what is still buffered; returns total bytes written.
    std::uint64_t finish();

private:
    void flush();

    File out_;
    std::size_t record_bytes_;
    std::vector<std::byte> buf_;
    std::size_t buffered_ = 0;  ///< records currently in buf_
    std::uint64_t bytes_ = 0;
};

/// Buffered sequential reader over one run file.
class RunReader {
public:
    RunReader(const std::filesystem::path& path, std::size_t record_bytes,
              std::size_t buffer_records);
    /// Advances to the next record; returns its bytes, or nullptr at EOF.
    const std::byte* advance();

private:
    FileReader in_;
    std::size_t record_bytes_;
};

/// Loser-tree k-way merge over sorted run files, ordered by (key, seq).
/// Deletes each input file once it is exhausted.
class KWayMerge {
public:
    KWayMerge(std::vector<std::filesystem::path> runs,
              std::size_t record_bytes, std::size_t buffer_records);
    ~KWayMerge();

    /// Copies bytes [from, record_bytes) of each of up to `max_records`
    /// merged records into `out`, back to back; returns the count (0 =
    /// merge complete).
    std::size_t next(std::byte* out, std::size_t max_records,
                     std::size_t from = 0);

private:
    void replay(std::size_t source);
    bool worse(std::size_t a, std::size_t b) const;
    void retire(std::size_t source);

    std::vector<std::filesystem::path> paths_;
    std::vector<std::unique_ptr<RunReader>> readers_;
    std::size_t record_bytes_;
    // Cached sort key of each source's current record.
    std::vector<std::uint64_t> key_;
    std::vector<std::uint64_t> seq_;
    std::vector<const std::byte*> rec_;
    std::vector<std::size_t> loser_;  ///< internal nodes of the loser tree
    std::size_t winner_ = 0;
    std::size_t alive_ = 0;
};

/// The final merge on a thread of its own. The first next() starts it;
/// it merges blocks of `block_records` payloads (each record's bytes
/// after its key) and hands them over through a one-slot queue, recycling
/// the blocks the caller has drained, so at most three blocks exist: the
/// caller's, the queued one and the one being merged. next() rethrows on
/// the caller what the merge threw. The destructor stops the thread and
/// joins it before the merge (and with it the run files) goes.
class MergeThread {
public:
    MergeThread(std::vector<std::filesystem::path> runs,
                std::size_t record_bytes, std::size_t block_records);
    ~MergeThread();
    MergeThread(const MergeThread&) = delete;
    MergeThread& operator=(const MergeThread&) = delete;

    /// Copies the payloads of up to `max_records` next merged records
    /// into `out`, back to back; returns the count (0 = merge complete).
    std::size_t next(std::byte* out, std::size_t max_records);

private:
    static constexpr std::size_t kBlocks = 3;

    struct Block {
        std::vector<std::byte> bytes;
        std::size_t records = 0;
    };

    /// The thread's body: merges blocks until the runs are drained, the
    /// merge throws, or the destructor closes the queues.
    void run();
    /// Makes the next merged block the caller's; false at the end, and
    /// rethrows there what the thread threw.
    bool take_block();

    KWayMerge merge_;
    std::size_t payload_bytes_;
    std::size_t block_records_;
    BoundedMpmcQueue<Block> merged_{1};
    BoundedMpmcQueue<std::vector<std::byte>> drained_{kBlocks};
    std::exception_ptr failure_;  ///< what run() threw (see extsort.cpp)
    // Caller-side state.
    Block current_;
    std::size_t pos_ = 0;  ///< next record of current_ to hand out
    bool done_ = false;
    std::thread thread_;
};

/// Merges batches of at most `fan_in` runs into single longer runs until
/// no more than `fan_in` remain; reduction output lands in `dir`.
/// Consumed inputs are deleted. Adds the bytes written to *spill_bytes
/// and the passes performed to *passes.
std::vector<std::filesystem::path> reduce_runs(
    std::vector<std::filesystem::path> runs, std::size_t record_bytes,
    std::size_t buffer_records, std::size_t fan_in,
    const std::filesystem::path& dir, std::uint64_t* spill_bytes,
    std::size_t* passes);

}  // namespace detail

/// Streams `input` through an external sort into Hilbert order.
/// Construction performs run formation and any reduction passes; next()
/// then streams the final merge from its thread. See the file comment for
/// the memory bound.
template <std::size_t D>
class ExtSorter final : public PointSource<D> {
public:
    static constexpr std::size_t kRecordBytes = (2 + D) * 8;

    ExtSorter(PointSource<D>& input, const Rect<D>& domain,
              ExtSortConfig config = {})
        : cfg_(config) {
        PGF_CHECK(cfg_.chunk_records > 0, "extsort: chunk_records must be > 0");
        PGF_CHECK(cfg_.merge_buffer_records > 0,
                  "extsort: merge_buffer_records must be > 0");
        PGF_CHECK(cfg_.max_fan_in >= 2, "extsort: max_fan_in must be >= 2");
        if (cfg_.hilbert_bits == 0) {
            cfg_.hilbert_bits =
                std::min<unsigned>(16, sfc::kMaxIndexBits / D);
        }
        PGF_CHECK(cfg_.hilbert_bits <= 32,
                  "extsort: hilbert_bits must be in [1, 32]");
        PGF_CHECK(D * cfg_.hilbert_bits <= sfc::kMaxIndexBits,
                  "extsort: D * hilbert_bits must fit in a 64-bit key");
        if (cfg_.temp_dir.empty()) {
            owned_dir_.emplace("pgf-extsort");
            dir_ = owned_dir_->path();
        } else {
            dir_ = cfg_.temp_dir;
            std::filesystem::create_directories(dir_);
        }
        form_runs(input, domain);
        stats_.initial_runs = runs_.size();
        runs_ = detail::reduce_runs(std::move(runs_), kRecordBytes,
                                    cfg_.merge_buffer_records,
                                    cfg_.max_fan_in, dir_,
                                    &stats_.spill_bytes,
                                    &stats_.merge_passes);
        stats_.final_fan_in = runs_.size();
        if (!runs_.empty()) {
            merge_.emplace(std::move(runs_), kRecordBytes,
                           cfg_.merge_buffer_records);
        }
    }

    /// Next block of the fully sorted sequence. Rethrows what the merge
    /// thread threw, on this and every later call.
    std::size_t next(std::span<Point<D>> out) override {
        if (!merge_.has_value() || out.empty()) return 0;
        // A payload is the point's bytes: copying it is decoding it.
        const std::size_t n = merge_->next(
            reinterpret_cast<std::byte*>(out.data()), out.size());
        if (n == 0) merge_.reset();  // join the thread, release the readers
        return n;
    }

    const ExtSortStats& stats() const { return stats_; }
    const ExtSortConfig& config() const { return cfg_; }

    /// Hilbert key of `p` under this sorter's quantization — exposed so
    /// tests can check order without re-deriving the key map.
    std::uint64_t key_of(const Point<D>& p, const Rect<D>& domain) const {
        return hilbert_key(p, domain, cfg_.hilbert_bits);
    }

    /// Quantizes `p` onto the 2^bits-per-axis grid over `domain` (clamping
    /// out-of-domain coordinates, mirroring the scales' locate semantics)
    /// and returns its Hilbert index. `bits` must satisfy what the
    /// constructor checks: 1 <= bits <= 32 and D * bits <= 64.
    static std::uint64_t hilbert_key(const Point<D>& p, const Rect<D>& domain,
                                     unsigned bits) {
        std::array<std::uint32_t, D> cell;
        const double cells = static_cast<double>(std::uint64_t{1} << bits);
        const auto last =
            static_cast<std::uint32_t>((std::uint64_t{1} << bits) - 1);
        for (std::size_t i = 0; i < D; ++i) {
            const double extent = domain.hi[i] - domain.lo[i];
            const double t =
                extent > 0.0 ? (p[i] - domain.lo[i]) / extent : 0.0;
            const double x = t * cells;
            // Clamp before the cast, as LinearScale::locate does: at or
            // above the domain (+inf, NaN) is the last cell, below it
            // (-inf) cell 0; only x in (0, cells) is converted.
            std::uint32_t c = last;
            if (x < cells) c = x > 0.0 ? static_cast<std::uint32_t>(x) : 0u;
            cell[i] = c;
        }
        return sfc::hilbert_index_unchecked<D>(cell, bits);
    }

private:
    struct Keyed {
        std::uint64_t key;
        std::uint64_t seq;
        Point<D> point;
    };
    // A run file holds Keyed records byte for byte.
    static_assert(std::is_trivially_copyable_v<Keyed> &&
                  sizeof(Keyed) == kRecordBytes &&
                  offsetof(Keyed, seq) == 8 &&
                  offsetof(Keyed, point) == detail::kKeyBytes);
    static_assert(sizeof(Point<D>) == kRecordBytes - detail::kKeyBytes);

    /// Widest radix digit; a key of D * hilbert_bits bits is split into
    /// the fewest digits of at most this width, all of one width.
    static constexpr unsigned kMaxDigitBits = 11;

    /// Phase 1: one fixed-boundary chunk at a time is filled in seq order,
    /// keyed and sorted on every lane, and spilled as a run. The chunk and
    /// the radix sort's ping-pong buffer are the only record buffers.
    void form_runs(PointSource<D>& input, const Rect<D>& domain) {
        std::vector<Keyed> chunk;
        std::vector<Keyed> scratch;
        chunk.reserve(cfg_.chunk_records);
        std::uint64_t seq = 0;
        bool more = true;
        while (more) {
            chunk.clear();
            more = fill_chunk(input, chunk, seq);
            if (chunk.empty()) break;
            seq += chunk.size();
            key_and_sort(chunk, scratch, domain);
            spill_run(chunk);
        }
        stats_.records = seq;
    }

    /// Keys every record of `chunk`, then sorts it stably by key with an
    /// LSD radix sort through `scratch`. Each lane owns one contiguous
    /// slice of the chunk; every pass counts digits per slice and places
    /// records at offsets taken in (digit, slice) order, so the result is
    /// the one stable order whatever the lane count.
    void key_and_sort(std::vector<Keyed>& chunk, std::vector<Keyed>& scratch,
                      const Rect<D>& domain) {
        const std::size_t n = chunk.size();
        const std::size_t lanes =
            cfg_.pool != nullptr ? cfg_.pool->parallelism() : 1;
        // Runs body(lane, begin, end) over each lane's slice.
        const auto on_lanes = [&](const auto& body) {
            if (lanes == 1) {
                body(0, 0, n);
                return;
            }
            cfg_.pool->parallel_for_chunk(
                lanes, 1, [&](std::size_t first, std::size_t last) {
                    for (std::size_t lane = first; lane < last; ++lane) {
                        body(lane, n * lane / lanes, n * (lane + 1) / lanes);
                    }
                });
        };
        on_lanes([&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
                chunk[k].key =
                    hilbert_key(chunk[k].point, domain, cfg_.hilbert_bits);
            }
        });

        const unsigned key_bits =
            static_cast<unsigned>(D) * cfg_.hilbert_bits;
        const unsigned passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
        const unsigned digit_bits = (key_bits + passes - 1) / passes;
        const std::size_t radix = std::size_t{1} << digit_bits;
        // offsets[lane * radix + d]: the slice's count of digit d, then
        // (after the prefix sum) where its next record of digit d goes.
        std::vector<std::size_t> offsets(lanes * radix);
        scratch.resize(n);
        Keyed* src = chunk.data();
        Keyed* dst = scratch.data();
        for (unsigned shift = 0; shift < key_bits; shift += digit_bits) {
            const auto digit = [&](const Keyed& r) {
                return static_cast<std::size_t>(r.key >> shift) & (radix - 1);
            };
            on_lanes([&](std::size_t lane, std::size_t begin,
                         std::size_t end) {
                std::size_t* count = offsets.data() + lane * radix;
                std::fill_n(count, radix, std::size_t{0});
                for (std::size_t k = begin; k < end; ++k) {
                    ++count[digit(src[k])];
                }
            });
            std::size_t next = 0;
            for (std::size_t d = 0; d < radix; ++d) {
                for (std::size_t lane = 0; lane < lanes; ++lane) {
                    std::size_t& slot = offsets[lane * radix + d];
                    const std::size_t count = slot;
                    slot = next;
                    next += count;
                }
            }
            on_lanes([&](std::size_t lane, std::size_t begin,
                         std::size_t end) {
                std::size_t* offset = offsets.data() + lane * radix;
                for (std::size_t k = begin; k < end; ++k) {
                    dst[offset[digit(src[k])]++] = src[k];
                }
            });
            std::swap(src, dst);
        }
        if (src != chunk.data()) chunk.swap(scratch);
    }

    /// Reads up to chunk_records points into `chunk` (tagging sequence
    /// numbers from `seq_base`); false once the source is exhausted.
    bool fill_chunk(PointSource<D>& input, std::vector<Keyed>& chunk,
                    std::uint64_t seq_base) {
        std::vector<Point<D>> io(4096);
        while (chunk.size() < cfg_.chunk_records) {
            const std::size_t want =
                std::min(io.size(), cfg_.chunk_records - chunk.size());
            const std::size_t got =
                input.next(std::span<Point<D>>(io.data(), want));
            if (got == 0) return false;
            for (std::size_t k = 0; k < got; ++k) {
                chunk.push_back(
                    Keyed{0, seq_base + chunk.size(), io[k]});
            }
        }
        return true;
    }

    /// Writes `chunk` as the next run file, in one write from memory.
    void spill_run(const std::vector<Keyed>& chunk) {
        const auto name = "run-" + std::to_string(runs_.size()) + ".bin";
        const std::filesystem::path path = dir_ / name;
        const auto bytes = std::as_bytes(std::span(chunk));
        File(path.string(), File::Mode::kCreate).write_at(0, bytes);
        stats_.spill_bytes += bytes.size();
        runs_.push_back(path);
    }

    ExtSortConfig cfg_;
    // Declared before merge_, so the directory outlives the merge thread
    // and the run files it reads.
    std::optional<util::TempDir> owned_dir_;
    std::filesystem::path dir_;
    std::vector<std::filesystem::path> runs_;
    std::optional<detail::MergeThread> merge_;
    ExtSortStats stats_;
};

}  // namespace pgf::extsort

// Write-ahead log for the paged grid file.
//
// An append-only file of physical redo records. File layout:
//
//   16-byte header: magic "PGFWAL2\0" + u64 reserved (0)
//   records: u32 crc32c | u32 body_len | u64 lsn | u8 kind | body
//
// The record checksum covers [body_len, lsn, kind, body]. LSNs are
// allocated densely starting at 1 and strictly increase through the file,
// so a scan can detect the torn tail a crash leaves behind: the valid
// prefix ends at the last record whose length fits, whose checksum
// verifies, and whose LSN continues the sequence. open() truncates the
// tail; recovery replays records up to the last commit marker and
// resumes the log there. A format-1 log ("PGFWAL1\0", whose kPage bodies
// were whole page images) is refused by name.
//
// Record kinds (bodies are little-endian; dimension-typed bodies are
// encoded/decoded by the templated store/recovery layer on top):
//
//   kGenesis  grid parameters: dims, page size, bucket capacity, split
//             rule (0 = midpoint), domain — enough to re-open the file
//             from the log alone.
//   kPage     u64 page id, then the payload byte ranges one page encode
//             changed: (u32 offset, u32 length > 0, length bytes)
//             each, ascending. A page's image is the zero page its
//             allocation wrote plus every range journaled for it, in
//             LSN order; an encode that changed nothing logs no range.
//   kCreate   new bucket: u32 bucket, u64 page, box (u32 lo/hi per dim).
//   kSplit    u32 from, u32 to, u32 axis — bucket `from` shrank along
//             `axis` so that its upper half became bucket `to` (replay
//             sets from.hi[axis] = to.lo[axis]).
//   kRefine   u32 axis, u32 interval, f64 coord — a directory refinement;
//             replay re-inserts the scale split and shifts cell boxes
//             exactly as GridFileCore::shift_cell_boxes did.
//   kCommit   empty body — everything before this LSN is a consistent
//             grid file state.
//
// Appends buffer in memory under the log's latch and reach disk on
// flush() — group commit. A flush writes at the log's tracked end, which
// advances only when the write succeeds: a flush that fails part way
// keeps its records buffered, and the next flush writes them again over
// the torn bytes. durable_lsn() is the last LSN actually on disk; the
// BufferPool's write-back ordering invariant (WAL before data) calls
// flush_up_to() before letting a dirty page with a newer LSN out.
// With a FaultInjector every group flush is one crash-injection point
// (see pgf/util/file.hpp); the file header is not.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pgf/util/annotations.hpp"
#include "pgf/util/file.hpp"

namespace pgf {

enum class WalRecordKind : std::uint8_t {
    kGenesis = 1,
    kPage = 2,
    kCreate = 3,
    kSplit = 4,
    kRefine = 5,
    kCommit = 6,
};

class WriteAheadLog {
public:
    /// Creates (truncating) a fresh log.
    static std::unique_ptr<WriteAheadLog> create(
        const std::string& path, FaultInjector* injector = nullptr);

    /// Opens an existing log for appending: scans for the valid prefix,
    /// then resume()s at its end.
    static std::unique_ptr<WriteAheadLog> open(const std::string& path);

    /// Reopens a log already scanned by the caller: cuts the file to
    /// `length` bytes and continues the LSN sequence after `last_lsn`,
    /// the last record inside them.
    static std::unique_ptr<WriteAheadLog> resume(const std::string& path,
                                                 std::uint64_t length,
                                                 std::uint64_t last_lsn);

    ~WriteAheadLog();
    WriteAheadLog(const WriteAheadLog&) = delete;
    WriteAheadLog& operator=(const WriteAheadLog&) = delete;

    const std::string& path() const { return path_; }

    /// Appends a record (buffered); returns its LSN.
    std::uint64_t append(WalRecordKind kind, std::span<const std::byte> body)
        PGF_EXCLUDES(latch_);

    /// Last LSN handed out (not necessarily durable yet).
    std::uint64_t last_lsn() const PGF_EXCLUDES(latch_);

    /// Last LSN flushed to disk. Lock-free: the write-back ordering check
    /// in BufferPool::evict_frame reads it while holding the pool latch.
    std::uint64_t durable_lsn() const {
        return durable_lsn_.load(std::memory_order_acquire);
    }

    /// Flushes every buffered record to disk (group commit).
    void flush() PGF_EXCLUDES(latch_);

    /// Ensures all records up to `lsn` are durable; no-op when they
    /// already are. The WAL-before-data ordering hook.
    void flush_up_to(std::uint64_t lsn) PGF_EXCLUDES(latch_);

    struct Stats {
        std::uint64_t records = 0;  ///< appended this session
        std::uint64_t bytes = 0;    ///< encoded bytes appended this session
        std::uint64_t flushes = 0;  ///< disk flushes (group commits)
    };
    Stats stats() const PGF_EXCLUDES(latch_);

    /// Buffered bytes that trigger an automatic flush on append.
    static constexpr std::size_t kAutoFlushBytes = 1u << 20;

private:
    WriteAheadLog(File file, std::uint64_t end, std::uint64_t last_lsn);
    void flush_locked() PGF_REQUIRES(latch_);

    std::string path_;
    mutable Mutex latch_;
    File file_ PGF_GUARDED_BY(latch_);
    std::uint64_t end_ PGF_GUARDED_BY(latch_);  // where the next flush writes
    std::vector<std::byte> buf_ PGF_GUARDED_BY(latch_);  // encoded, unflushed
    std::uint64_t last_lsn_ PGF_GUARDED_BY(latch_) = 0;
    std::atomic<std::uint64_t> durable_lsn_{0};
    Stats stats_ PGF_GUARDED_BY(latch_);
};

/// Streaming reader over a WAL file. scan() finds the valid prefix (pass
/// one); rewind()/next() then iterate the records inside it — recovery's
/// logical pass, and its page pass when some page needs rebuilding. Every
/// pass reads front to back through one FileReader buffer.
class WalReader {
public:
    explicit WalReader(const std::string& path);

    struct Record {
        std::uint64_t lsn = 0;
        WalRecordKind kind = WalRecordKind::kCommit;
        std::vector<std::byte> body;
    };

    struct ScanResult {
        std::uint64_t valid_bytes = 0;  ///< prefix length incl. file header
        std::uint64_t records = 0;
        std::uint64_t last_lsn = 0;
        std::uint64_t last_commit_lsn = 0;  ///< 0 = no commit marker found
        /// Prefix length through the last commit record (file header only
        /// when none) — recovery truncates here, discarding the records of
        /// the interrupted operation so later appends cannot resurrect it.
        std::uint64_t commit_bytes = 0;
        bool has_genesis = false;
    };

    /// Validates the header and walks the records, stopping at the first
    /// torn/corrupt one. Also primes the iteration bound for next().
    ScanResult scan();

    /// Reads the next record inside the valid prefix; false at the end.
    /// scan() must have run first.
    bool next(Record& out);

    /// Validates the header and reads only the first record (a genesis
    /// probe that does not walk the log); false when it is torn or absent.
    /// Does not prime next().
    bool first(Record& out);

    /// Restarts iteration at the first record.
    void rewind();

private:
    /// Checks the file header and positions the reader at the first record.
    void read_header();
    bool read_record(Record& out);

    FileReader in_;
    std::uint64_t valid_bytes_ = 0;
    std::uint64_t prev_lsn_ = 0;
    bool scanned_ = false;
};

// -- little-endian body builders/parsers (shared by store and recovery) ------

inline void wal_put_u32(std::vector<std::byte>& out, std::uint32_t v) {
    out.resize(out.size() + 4);
    store_le<std::uint32_t>(out.data() + out.size() - 4, v);
}

inline void wal_put_u64(std::vector<std::byte>& out, std::uint64_t v) {
    out.resize(out.size() + 8);
    store_le<std::uint64_t>(out.data() + out.size() - 8, v);
}

inline void wal_put_f64(std::vector<std::byte>& out, double v) {
    wal_put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline std::uint32_t wal_get_u32(std::span<const std::byte> in,
                                 std::size_t& off) {
    off += 4;
    return load_le<std::uint32_t>(in.subspan(off - 4, 4).data());
}

inline std::uint64_t wal_get_u64(std::span<const std::byte> in,
                                 std::size_t& off) {
    off += 8;
    return load_le<std::uint64_t>(in.subspan(off - 8, 8).data());
}

inline double wal_get_f64(std::span<const std::byte> in, std::size_t& off) {
    return std::bit_cast<double>(wal_get_u64(in, off));
}

}  // namespace pgf

// The file layer: every binary file pgf writes or reads — page files, the
// write-ahead log, external-sort runs, flat binary point files — goes
// through pgf::File.
//
//   - I/O is positional (pread/pwrite), so a read needs no seek and no
//     lock: a const File may be read from several threads at once.
//   - Reads and writes loop until the whole span is transferred,
//     retrying EINTR. A read comes up short only at end of file, and the
//     caller decides whether its format needed those bytes (CheckError)
//     or not (a torn tail).
//   - Every operating-system failure throws IoError, carrying the path,
//     the operation, the offset and the errno. An IoError is not a
//     CheckError: the program is fine, the file or the disk is not.
//   - Crash injection lives here too. A File built with a FaultInjector
//     spends one unit of its budget per write (write_at or append); the
//     write that exhausts it reaches disk only half written and throws
//     CrashError, and from then on every write through any File sharing
//     the injector is silently dropped — the on-disk bytes freeze at the
//     instant of the simulated kill. Writes passed CrashSite::kNo (the
//     page file's superblock, the log's header) spend nothing but are
//     dropped after the crash like the rest.
//
// FileReader streams a file front to back through one buffer; the WAL
// reader, the external sort's run reader and the binary point source all
// read through it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pgf {

/// An operating-system failure on a file: open, read, write, truncate or
/// stat returned an error.
class IoError : public std::runtime_error {
public:
    IoError(std::string op, std::string path, std::uint64_t offset,
            int error);

    const std::string& op() const { return op_; }
    const std::string& path() const { return path_; }
    std::uint64_t offset() const { return offset_; }
    /// The errno the failing call set.
    int error() const { return error_; }

private:
    std::string op_;
    std::string path_;
    std::uint64_t offset_;
    int error_;
};

/// Thrown by an injected fault at the moment the simulated process dies.
/// Deliberately not a CheckError: a crash is not an invariant violation.
class CrashError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A write-op budget shared by every File of one store (the data page
/// file and the write-ahead log). With the default unlimited budget it
/// only counts: the crash tests run a workload once uninjured to learn
/// how many injection points it has, then sweep budgets across them.
class FaultInjector {
public:
    static constexpr std::uint64_t kUnlimited =
        std::numeric_limits<std::uint64_t>::max();

    /// Crash on the (budget+1)-th injectable write op; kUnlimited = never
    /// (count only).
    explicit FaultInjector(std::uint64_t budget = kUnlimited)
        : budget_(budget) {}

    /// Re-arms the injector to crash on the (budget+1)-th injectable op
    /// from *now* — tests use this to exclude file creation from the
    /// sweep (initialization is not crash-protected, just like a real
    /// system's mkfs).
    void arm(std::uint64_t budget) {
        budget_.store(ops_seen_.load(std::memory_order_relaxed) + budget,
                      std::memory_order_relaxed);
    }

    /// Spends one op. True exactly once: on the op that must crash.
    bool should_crash() {
        const std::uint64_t seen =
            ops_seen_.fetch_add(1, std::memory_order_relaxed);
        if (seen == budget_.load(std::memory_order_relaxed)) {
            crashed_.store(true, std::memory_order_release);
            return true;
        }
        return false;
    }

    bool crashed() const { return crashed_.load(std::memory_order_acquire); }
    std::uint64_t ops_seen() const {
        return ops_seen_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> budget_;
    std::atomic<std::uint64_t> ops_seen_{0};
    std::atomic<bool> crashed_{false};
};

/// Whether a write is a crash-injection point (see the file comment).
enum class CrashSite : bool { kNo, kYes };

class File {
public:
    enum class Mode {
        kRead,       ///< existing file, read-only
        kReadWrite,  ///< existing file
        kCreate,     ///< created, or truncated when it exists
    };

    File(const std::string& path, Mode mode,
         FaultInjector* injector = nullptr);
    File(File&& other) noexcept;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    ~File();

    const std::string& path() const { return path_; }
    /// False only for a moved-from File.
    bool is_open() const { return fd_ >= 0; }

    /// Current length in bytes.
    std::uint64_t size() const;

    /// Reads up to out.size() bytes starting at `offset` and returns how
    /// many arrived — fewer only when the file ends first.
    std::size_t read_at(std::uint64_t offset, std::span<std::byte> out) const;

    /// Writes all of `data` at `offset`, growing the file as needed.
    void write_at(std::uint64_t offset, std::span<const std::byte> data,
                  CrashSite site = CrashSite::kYes);

    /// Writes all of `data` at the current end of the file.
    void append(std::span<const std::byte> data,
                CrashSite site = CrashSite::kYes);

    /// Cuts (or zero-extends) the file to `length` bytes.
    void truncate(std::uint64_t length);

private:
    [[noreturn]] void fail(const char* op, std::uint64_t offset,
                           int error) const;
    /// The crash seam: false when the write must be dropped; writes the
    /// torn half and throws CrashError on the crashing write.
    bool admit(std::uint64_t offset, std::span<const std::byte> data,
               CrashSite site);
    void pwrite_all(std::uint64_t offset, std::span<const std::byte> data);

    int fd_ = -1;
    std::string path_;
    FaultInjector* injector_ = nullptr;
};

/// Buffered front-to-back reader over a read-only File.
class FileReader {
public:
    explicit FileReader(const std::string& path,
                        std::size_t buffer_bytes = std::size_t{1} << 16);

    const std::string& path() const { return file_.path(); }

    /// The next `n` bytes of the file, as a view into the reader's buffer
    /// that stays valid until the next call. Shorter than `n` only at the
    /// end of the file (empty there).
    std::span<const std::byte> next(std::size_t n) {
        if (end_ - begin_ < n) refill(n);
        const std::size_t take = std::min(n, end_ - begin_);
        const std::span<const std::byte> out(buf_.data() + begin_, take);
        begin_ += take;
        return out;
    }

    /// File offset of the next byte next() returns.
    std::uint64_t position() const { return file_pos_ - (end_ - begin_); }

    /// Continues reading at `offset`. A forward seek that stays inside the
    /// buffered bytes reads nothing from the file.
    void seek(std::uint64_t offset);

private:
    /// Slides the unread bytes to the front, grows the buffer to hold at
    /// least `n`, and fills the rest from the file.
    void refill(std::size_t n);

    File file_;
    std::vector<std::byte> buf_;
    std::size_t begin_ = 0;       ///< next unread byte in buf_
    std::size_t end_ = 0;         ///< one past the last buffered byte
    std::uint64_t file_pos_ = 0;  ///< file offset of buf_[end_]
};

// -- little-endian words, the byte order of every pgf file format ------------
// T (std::uint32_t or std::uint64_t) is the width; store_le takes it only
// explicitly, so an argument's type can never pick the width by accident.

template <typename T>
T load_le(const std::byte* p) {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(p[i]) << (8 * i);
    }
    return v;
}

template <typename T>
void store_le(std::byte* p, std::type_identity_t<T> v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
}

}  // namespace pgf

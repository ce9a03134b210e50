#include "pgf/storage/wal.hpp"

#include <cstring>

#include "pgf/storage/page.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

namespace {

constexpr char kWalMagic[8] = {'P', 'G', 'F', 'W', 'A', 'L', '2', '\0'};
// Format 1 journaled whole page images in kPage; format 2 journals the
// byte ranges an encode changed, so the two cannot read each other.
constexpr char kWalMagicV1[8] = {'P', 'G', 'F', 'W', 'A', 'L', '1', '\0'};
constexpr std::size_t kFileHeaderBytes = 16;  // magic + u64 reserved
constexpr std::size_t kEnvelopeBytes = 17;    // crc + len + lsn + kind
// Body-length sanity bound for the tail scan: far above any real record
// (the largest is a page record whose range spans a whole payload), far
// below anything that could make the scan read garbage as a length and
// allocate wild.
constexpr std::uint32_t kMaxBodyBytes = 1u << 24;

void encode_record(std::vector<std::byte>& out, std::uint64_t lsn,
                   WalRecordKind kind, std::span<const std::byte> body) {
    const std::size_t start = out.size();
    out.resize(start + kEnvelopeBytes);
    auto* p = out.data() + start;
    store_le<std::uint32_t>(p + 4, static_cast<std::uint32_t>(body.size()));
    store_le<std::uint64_t>(p + 8, lsn);
    p[16] = static_cast<std::byte>(kind);
    out.insert(out.end(), body.begin(), body.end());
    // Checksum over everything after the crc field (len, lsn, kind, body).
    const std::uint32_t crc = crc32c(
        std::span<const std::byte>(out).subspan(start + 4));
    store_le<std::uint32_t>(out.data() + start, crc);
}

}  // namespace

// ---------------------------------------------------------------- WAL writer

WriteAheadLog::WriteAheadLog(File file, std::uint64_t end,
                             std::uint64_t last_lsn)
    : path_(file.path()),
      file_(std::move(file)),
      end_(end),
      last_lsn_(last_lsn),
      durable_lsn_(last_lsn) {}

std::unique_ptr<WriteAheadLog> WriteAheadLog::create(const std::string& path,
                                                     FaultInjector* injector) {
    File file(path, File::Mode::kCreate, injector);
    std::byte header[kFileHeaderBytes] = {};
    std::memcpy(header, kWalMagic, sizeof(kWalMagic));
    file.write_at(0, header, CrashSite::kNo);
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(std::move(file), kFileHeaderBytes, 0));
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::open(const std::string& path) {
    const auto scan = WalReader(path).scan();
    return resume(path, scan.valid_bytes, scan.last_lsn);
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::resume(const std::string& path,
                                                     std::uint64_t length,
                                                     std::uint64_t last_lsn) {
    File file(path, File::Mode::kReadWrite);
    // Drop the torn tail so the resumed LSN sequence stays dense.
    file.truncate(length);
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(std::move(file), length, last_lsn));
}

WriteAheadLog::~WriteAheadLog() {
    // Destructor flush: a triggered crash fault must not escape — the
    // frozen file *is* the simulated crash.
    try {
        MutexLock lock(latch_);
        flush_locked();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
}

std::uint64_t WriteAheadLog::append(WalRecordKind kind,
                                    std::span<const std::byte> body) {
    MutexLock lock(latch_);
    const std::uint64_t lsn = ++last_lsn_;
    encode_record(buf_, lsn, kind, body);
    ++stats_.records;
    stats_.bytes += kEnvelopeBytes + body.size();
    if (buf_.size() >= kAutoFlushBytes) flush_locked();
    return lsn;
}

std::uint64_t WriteAheadLog::last_lsn() const {
    MutexLock lock(latch_);
    return last_lsn_;
}

void WriteAheadLog::flush() {
    MutexLock lock(latch_);
    flush_locked();
}

void WriteAheadLog::flush_up_to(std::uint64_t lsn) {
    if (lsn == 0 || lsn <= durable_lsn()) return;
    flush();
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
    MutexLock lock(latch_);
    return stats_;
}

void WriteAheadLog::flush_locked() {
    if (buf_.empty()) return;
    // At the tracked end, not the file's size: a write that failed part
    // way left torn bytes there, and this retry overwrites them.
    file_.write_at(end_, buf_);
    end_ += buf_.size();
    buf_.clear();
    ++stats_.flushes;
    durable_lsn_.store(last_lsn_, std::memory_order_release);
}

// ---------------------------------------------------------------- WAL reader

WalReader::WalReader(const std::string& path) : in_(path) {}

void WalReader::read_header() {
    in_.seek(0);
    const auto header = in_.next(kFileHeaderBytes);
    const bool whole = header.size() == kFileHeaderBytes;
    PGF_CHECK(!whole || std::memcmp(header.data(), kWalMagicV1,
                                    sizeof(kWalMagicV1)) != 0,
              "WAL: " + in_.path() +
                  " is log format 1; this build reads format 2 (replay it "
                  "with the build that wrote it)");
    PGF_CHECK(whole && std::memcmp(header.data(), kWalMagic,
                                   sizeof(kWalMagic)) == 0,
              "WAL: bad magic in " + in_.path() + " (not a write-ahead log)");
    prev_lsn_ = 0;
}

bool WalReader::first(Record& out) {
    read_header();
    return read_record(out);
}

WalReader::ScanResult WalReader::scan() {
    read_header();

    ScanResult result;
    result.valid_bytes = kFileHeaderBytes;
    result.commit_bytes = kFileHeaderBytes;
    Record rec;
    while (read_record(rec)) {
        prev_lsn_ = rec.lsn;
        result.valid_bytes = in_.position();
        ++result.records;
        result.last_lsn = rec.lsn;
        if (rec.kind == WalRecordKind::kCommit) {
            result.last_commit_lsn = rec.lsn;
            result.commit_bytes = result.valid_bytes;
        }
        if (rec.kind == WalRecordKind::kGenesis) result.has_genesis = true;
    }
    valid_bytes_ = result.valid_bytes;
    scanned_ = true;
    rewind();
    return result;
}

void WalReader::rewind() {
    in_.seek(kFileHeaderBytes);
    prev_lsn_ = 0;
}

bool WalReader::next(Record& out) {
    PGF_CHECK(scanned_, "WAL: next() before scan()");
    if (in_.position() >= valid_bytes_) return false;
    const bool ok = read_record(out);
    PGF_CHECK(ok, "WAL: record inside the valid prefix failed to re-read");
    prev_lsn_ = out.lsn;
    return true;
}

bool WalReader::read_record(Record& out) {
    const auto env = in_.next(kEnvelopeBytes);
    if (env.size() != kEnvelopeBytes) return false;

    const auto stored_crc = load_le<std::uint32_t>(env.data());
    const auto len = load_le<std::uint32_t>(env.data() + 4);
    const auto lsn = load_le<std::uint64_t>(env.data() + 8);
    const auto kind = static_cast<std::uint8_t>(env[16]);

    if (len > kMaxBodyBytes) return false;
    if (kind < static_cast<std::uint8_t>(WalRecordKind::kGenesis) ||
        kind > static_cast<std::uint8_t>(WalRecordKind::kCommit))
        return false;
    if (lsn != prev_lsn_ + 1) return false;  // LSNs are dense and increasing

    // The envelope's checksum is taken before next() reuses the buffer.
    std::uint32_t crc = crc32c(env.subspan(4));
    const auto body = in_.next(len);
    if (body.size() != len) return false;
    crc = crc32c(body, crc);
    if (crc != stored_crc) return false;

    out.lsn = lsn;
    out.kind = static_cast<WalRecordKind>(kind);
    out.body.assign(body.begin(), body.end());
    return true;
}

}  // namespace pgf

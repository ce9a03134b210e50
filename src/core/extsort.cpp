// Dimension-erased half of the external sort (pgf/core/extsort.hpp):
// buffered run-file I/O, the loser-tree k-way merge, the final merge's
// thread, and the multi-pass run reduction. Everything here works on raw
// `record_bytes`-stride records whose first 16 bytes are the (key, seq)
// sort key.
#include "pgf/core/extsort.hpp"

#include <cstring>

namespace pgf::extsort::detail {

namespace {

/// A u64 of a run-file record, read in place (host byte order).
std::uint64_t load_word(const std::byte* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

}  // namespace

// -- RunWriter ---------------------------------------------------------------

RunWriter::RunWriter(const std::filesystem::path& path,
                     std::size_t record_bytes, std::size_t buffer_records)
    : out_(path.string(), File::Mode::kCreate),
      record_bytes_(record_bytes),
      buf_(record_bytes * std::max<std::size_t>(buffer_records, 1)) {}

void RunWriter::append(const std::byte* records, std::size_t count) {
    std::size_t done = 0;
    const std::size_t cap = buf_.size() / record_bytes_;
    while (done < count) {
        const std::size_t take = std::min(count - done, cap - buffered_);
        std::copy_n(records + done * record_bytes_, take * record_bytes_,
                    buf_.data() + buffered_ * record_bytes_);
        buffered_ += take;
        done += take;
        if (buffered_ == cap) flush();
    }
}

std::uint64_t RunWriter::finish() {
    flush();
    return bytes_;
}

void RunWriter::flush() {
    const std::size_t n = buffered_ * record_bytes_;
    out_.write_at(bytes_, std::span<const std::byte>(buf_.data(), n));
    bytes_ += n;
    buffered_ = 0;
}

// -- RunReader ---------------------------------------------------------------

RunReader::RunReader(const std::filesystem::path& path,
                     std::size_t record_bytes, std::size_t buffer_records)
    : in_(path.string(),
          record_bytes * std::max<std::size_t>(buffer_records, 1)),
      record_bytes_(record_bytes) {}

const std::byte* RunReader::advance() {
    const auto rec = in_.next(record_bytes_);
    if (rec.empty()) return nullptr;
    PGF_CHECK(rec.size() == record_bytes_,
              "extsort: torn record in run file " + in_.path());
    return rec.data();
}

// -- KWayMerge ---------------------------------------------------------------
//
// Textbook loser tree in the complete-binary-tree array layout: sources
// are leaves k..2k-1, internal node n holds the loser of the matches
// below it, winner_ is the overall champion. Each replay after consuming
// the winner costs exactly ceil(log2 k) comparisons.

KWayMerge::KWayMerge(std::vector<std::filesystem::path> runs,
                     std::size_t record_bytes, std::size_t buffer_records)
    : paths_(std::move(runs)), record_bytes_(record_bytes) {
    const std::size_t k = paths_.size();
    PGF_CHECK(k >= 1, "extsort: merge needs at least one run");
    readers_.reserve(k);
    key_.resize(k);
    seq_.resize(k);
    rec_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
        readers_.push_back(std::make_unique<RunReader>(
            paths_[i], record_bytes_, buffer_records));
        rec_[i] = readers_[i]->advance();
        if (rec_[i] != nullptr) {
            key_[i] = load_word(rec_[i]);
            seq_[i] = load_word(rec_[i] + 8);
            ++alive_;
        } else {
            retire(i);
        }
    }
    // Bottom-up build: win[n] is the winner of the subtree under node n,
    // loser_[n] keeps the loser of the final match played at n.
    loser_.assign(k, 0);
    std::vector<std::size_t> win(2 * k);
    for (std::size_t i = 0; i < k; ++i) win[k + i] = i;
    for (std::size_t n = k; n-- > 1;) {
        std::size_t a = win[2 * n];
        std::size_t b = win[2 * n + 1];
        if (worse(a, b)) std::swap(a, b);
        win[n] = a;
        loser_[n] = b;
    }
    winner_ = k > 1 ? win[1] : 0;
}

KWayMerge::~KWayMerge() {
    // Runs are single-consumer scratch; delete whatever wasn't consumed.
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        if (readers_[i] != nullptr) {
            readers_[i].reset();
            std::error_code ec;
            std::filesystem::remove(paths_[i], ec);
        }
    }
}

void KWayMerge::retire(std::size_t source) {
    readers_[source].reset();
    std::error_code ec;
    std::filesystem::remove(paths_[source], ec);
}

bool KWayMerge::worse(std::size_t a, std::size_t b) const {
    // Exhausted sources lose to everything, so they sink in the tree.
    if (rec_[a] == nullptr) return true;
    if (rec_[b] == nullptr) return false;
    if (key_[a] != key_[b]) return key_[a] > key_[b];
    return seq_[a] > seq_[b];
}

void KWayMerge::replay(std::size_t source) {
    const std::size_t k = paths_.size();
    std::size_t cur = source;
    for (std::size_t n = (k + source) / 2; n >= 1; n /= 2) {
        if (worse(cur, loser_[n])) std::swap(cur, loser_[n]);
        if (n == 1) break;
    }
    winner_ = cur;
}

std::size_t KWayMerge::next(std::byte* out, std::size_t max_records,
                            std::size_t from) {
    const std::size_t width = record_bytes_ - from;
    std::size_t produced = 0;
    while (produced < max_records && alive_ > 0) {
        const std::size_t w = winner_;
        std::memcpy(out + produced * width, rec_[w] + from, width);
        ++produced;
        rec_[w] = readers_[w]->advance();
        if (rec_[w] != nullptr) {
            key_[w] = load_word(rec_[w]);
            seq_[w] = load_word(rec_[w] + 8);
        } else {
            retire(w);
            --alive_;
        }
        if (paths_.size() > 1) {
            replay(w);
        }
    }
    return produced;
}

// -- MergeThread -------------------------------------------------------------
//
// Three blocks circulate: the thread takes a drained one, merges into it
// and queues it (one slot); the caller takes it, hands its points out,
// and returns it drained. Closing both queues stops the thread within
// one block. The thread records what it threw in failure_ before it
// closes merged_, and the caller reads failure_ only once pop() has
// reported merged_ closed and drained, so the queue's mutex orders the
// two.

MergeThread::MergeThread(std::vector<std::filesystem::path> runs,
                         std::size_t record_bytes, std::size_t block_records)
    : merge_(std::move(runs), record_bytes, block_records),
      payload_bytes_(record_bytes - kKeyBytes),
      block_records_(block_records) {
    for (std::size_t i = 0; i < kBlocks; ++i) drained_.push({});
}

MergeThread::~MergeThread() {
    merged_.close();
    drained_.close();
    if (thread_.joinable()) thread_.join();
}

void MergeThread::run() {
    try {
        std::vector<std::byte> bytes;
        while (drained_.pop(bytes)) {
            bytes.resize(block_records_ * payload_bytes_);
            const std::size_t n =
                merge_.next(bytes.data(), block_records_, kKeyBytes);
            if (n == 0 || !merged_.push(Block{std::move(bytes), n})) break;
        }
    } catch (...) {
        failure_ = std::current_exception();
    }
    merged_.close();
}

bool MergeThread::take_block() {
    if (!done_) {
        if (!current_.bytes.empty()) {
            drained_.push(std::move(current_.bytes));
        }
        current_ = {};  // an empty block once the merge has ended
        pos_ = 0;
        done_ = !merged_.pop(current_);
    }
    if (done_ && failure_ != nullptr) std::rethrow_exception(failure_);
    return !done_;
}

std::size_t MergeThread::next(std::byte* out, std::size_t max_records) {
    if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
    std::size_t n = 0;
    while (n < max_records) {
        if (pos_ == current_.records && !take_block()) break;
        const std::size_t take =
            std::min(max_records - n, current_.records - pos_);
        std::memcpy(out + n * payload_bytes_,
                    current_.bytes.data() + pos_ * payload_bytes_,
                    take * payload_bytes_);
        pos_ += take;
        n += take;
    }
    return n;
}

// -- reduce_runs -------------------------------------------------------------

std::vector<std::filesystem::path> reduce_runs(
    std::vector<std::filesystem::path> runs, std::size_t record_bytes,
    std::size_t buffer_records, std::size_t fan_in,
    const std::filesystem::path& dir, std::uint64_t* spill_bytes,
    std::size_t* passes) {
    std::size_t generation = 0;
    while (runs.size() > fan_in) {
        ++generation;
        std::vector<std::filesystem::path> merged;
        merged.reserve((runs.size() + fan_in - 1) / fan_in);
        std::vector<std::byte> block(record_bytes * 4096);
        for (std::size_t begin = 0; begin < runs.size(); begin += fan_in) {
            const std::size_t end = std::min(begin + fan_in, runs.size());
            if (end - begin == 1) {
                // A lone tail run advances to the next generation as-is.
                merged.push_back(runs[begin]);
                continue;
            }
            std::vector<std::filesystem::path> batch(
                runs.begin() + static_cast<std::ptrdiff_t>(begin),
                runs.begin() + static_cast<std::ptrdiff_t>(end));
            const std::filesystem::path out_path =
                dir / ("merge-" + std::to_string(generation) + "-" +
                       std::to_string(merged.size()) + ".bin");
            KWayMerge merge(std::move(batch), record_bytes, buffer_records);
            RunWriter writer(out_path, record_bytes, buffer_records);
            for (;;) {
                const std::size_t n =
                    merge.next(block.data(), block.size() / record_bytes);
                if (n == 0) break;
                writer.append(block.data(), n);
            }
            *spill_bytes += writer.finish();
            merged.push_back(out_path);
        }
        runs = std::move(merged);
        ++*passes;
    }
    return runs;
}

}  // namespace pgf::extsort::detail

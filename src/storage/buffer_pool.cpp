#include "pgf/storage/buffer_pool.hpp"

#include <algorithm>

namespace pgf {

BufferPool::BufferPool(PageFile& file, std::size_t capacity,
                       ReplacementPolicy policy, WriteAheadLog* wal)
    : file_(file), capacity_(capacity), policy_kind_(policy), wal_(wal) {
    PGF_CHECK(capacity_ >= 1, "BufferPool needs at least one frame");
    MutexLock lock(latch_);
    frames_.resize(capacity_);
    policy_ = make_replacer(policy_kind_, capacity_);
    // Stack of never-used frames, popped back-to-front so frames fill in
    // index order — the same order the historical linear free scan used.
    free_.reserve(capacity_);
    for (std::size_t i = capacity_; i > 0; --i) free_.push_back(i - 1);
}

BufferPool::~BufferPool() {
    // Best-effort flush; failures here cannot throw out of a destructor.
    try {
        flush_all();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
}

void BufferPool::PageRef::mark_dirty() {
    pool_->mark_dirty_frame(frame_);
}

void BufferPool::PageRef::set_lsn(std::uint64_t lsn) {
    pool_->set_frame_lsn(frame_, lsn);
}

void BufferPool::mark_dirty_frame(std::size_t frame) {
    MutexLock lock(latch_);
    frames_[frame].dirty = true;
}

void BufferPool::set_frame_lsn(std::size_t frame, std::uint64_t lsn) {
    MutexLock lock(latch_);
    set_page_lsn(frames_[frame].data, lsn);
}

bool BufferPool::unpinned(const void* frames, std::size_t i) {
    const auto& fs = *static_cast<const std::vector<Frame>*>(frames);
    return fs[i].pin_count == 0;
}

BufferPool::PageRef BufferPool::fetch(std::uint64_t id) {
    MutexLock lock(latch_);
    auto it = table_.find(id);
    if (it != table_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Frame& f = frames_[it->second];
        ++f.pin_count;
        policy_->on_access(it->second, latch_);
        return PageRef(this, it->second, payload_of(f), f.page_id);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::size_t frame = grab_frame();
    Frame& f = frames_[frame];
    f.page_id = id;
    f.data.assign(file_.page_size(), std::byte{0});
    try {
        file_.read(id, f.data);
    } catch (...) {
        // Checksum mismatch (or I/O failure) on the miss fill: hand the
        // grabbed frame back before the typed error reaches the caller.
        release_frame(frame);
        throw;
    }
    f.pin_count = 1;
    f.dirty = false;
    f.in_use = true;
    table_[id] = frame;
    policy_->on_insert(frame, latch_);
    return PageRef(this, frame, payload_of(f), id);
}

BufferPool::PageRef BufferPool::allocate() {
    MutexLock lock(latch_);
    std::uint64_t id = file_.allocate();
    std::size_t frame = grab_frame();
    Frame& f = frames_[frame];
    f.page_id = id;
    f.data.assign(file_.page_size(), std::byte{0});
    f.pin_count = 1;
    f.dirty = false;
    f.in_use = true;
    table_[id] = frame;
    policy_->on_insert(frame, latch_);
    return PageRef(this, frame, payload_of(f), id);
}

void BufferPool::evict_frame(std::size_t frame) {
    Frame& f = frames_[frame];
    if (f.dirty) {
        // WAL-before-data: the log must be durable past this page's LSN
        // before its image may overwrite the on-disk pre-image. With no
        // WAL (or an unlogged page, LSN 0) this is a no-op.
        if (wal_ != nullptr) wal_->flush_up_to(page_lsn(f.data));
        file_.write(f.page_id, f.data);
        writebacks_.fetch_add(1, std::memory_order_relaxed);
    }
    table_.erase(f.page_id);
    policy_->on_evict(frame, latch_);
    f.in_use = false;
    evictions_.fetch_add(1, std::memory_order_relaxed);
}

void BufferPool::release_frame(std::size_t frame) {
    frames_[frame].in_use = false;
    free_.push_back(frame);
}

std::size_t BufferPool::grab_frame() {
    // Free frame first (stack pop, not a scan).
    while (!free_.empty()) {
        const std::size_t i = free_.back();
        free_.pop_back();
        if (!frames_[i].in_use) return i;
    }
    // Policy victim among unpinned frames — a pinned frame is never a
    // victim, so its data span (captured by live PageRefs) stays valid.
    // The view probes pin state lazily; ordered policies only test the
    // few frames at the head of their structure.
    EvictableView view(&frames_, &unpinned, frames_.size());
    const std::size_t victim = policy_->victim(view, latch_);
    PGF_CHECK(victim < frames_.size(),
              "BufferPool exhausted: every frame is pinned");
    evict_frame(victim);
    return victim;
}

void BufferPool::unpin(std::size_t frame) {
    MutexLock lock(latch_);
    Frame& f = frames_[frame];
    PGF_CHECK(f.pin_count > 0, "unpin of an unpinned frame");
    --f.pin_count;
}

std::size_t BufferPool::resident() const {
    MutexLock lock(latch_);
    return table_.size();
}

std::size_t BufferPool::pinned_frames() const {
    MutexLock lock(latch_);
    std::size_t pinned = 0;
    for (const Frame& f : frames_) {
        if (f.in_use && f.pin_count > 0) ++pinned;
    }
    return pinned;
}

std::vector<std::uint64_t> BufferPool::resident_pages() const {
    MutexLock lock(latch_);
    std::vector<std::uint64_t> pages;
    pages.reserve(table_.size());
    for (const auto& [page, frame] : table_) pages.push_back(page);
    std::sort(pages.begin(), pages.end());
    return pages;
}

BufferPool::Stats BufferPool::reset() {
    return Stats{hits_.exchange(0, std::memory_order_relaxed),
                 misses_.exchange(0, std::memory_order_relaxed),
                 evictions_.exchange(0, std::memory_order_relaxed),
                 writebacks_.exchange(0, std::memory_order_relaxed)};
}

void BufferPool::flush_all() {
    MutexLock lock(latch_);
    if (wal_ != nullptr) {
        // One group flush covering the dirtiest frame, instead of one
        // per write-back.
        std::uint64_t max_lsn = 0;
        for (const Frame& f : frames_) {
            if (f.in_use && f.dirty)
                max_lsn = std::max(max_lsn, page_lsn(f.data));
        }
        wal_->flush_up_to(max_lsn);
    }
    for (Frame& f : frames_) {
        if (f.in_use && f.dirty) {
            file_.write(f.page_id, f.data);
            f.dirty = false;
            writebacks_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    file_.sync();
}

}  // namespace pgf

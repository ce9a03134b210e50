#include "pgf/storage/buffer_pool.hpp"

#include <algorithm>

namespace pgf {

BufferPool::BufferPool(PageFile& file, std::size_t capacity,
                       WriteAheadLog* wal)
    : file_(file), capacity_(capacity), wal_(wal) {
    PGF_CHECK(capacity_ >= 1, "BufferPool needs at least one frame");
    MutexLock lock(latch_);
    frames_.resize(capacity_);
    lru_prev_.resize(capacity_, kNoFrame);
    lru_next_.resize(capacity_, kNoFrame);
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

BufferPool::PageRef BufferPool::fetch(std::uint64_t id) {
    MutexLock lock(latch_);
    auto it = table_.find(id);
    if (it != table_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t frame = it->second;
        Frame& f = frames_[frame];
        ++f.pin_count;
        lru_unlink(frame);
        lru_append(frame);
        return PageRef(this, frame, payload_of(f), f.page_id);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t frame = grab_frame();
    Frame& f = frames_[frame];
    // Sized on the frame's first use and never again: the read below
    // overwrites every byte or throws.
    f.data.resize(file_.page_size());
    try {
        file_.read(id, f.data);
    } catch (...) {
        // Checksum mismatch (or I/O failure) on the miss fill: hand the
        // grabbed frame back before the typed error reaches the caller.
        release_frame(frame);
        throw;
    }
    return install(frame, id);
}

BufferPool::PageRef BufferPool::allocate() {
    MutexLock lock(latch_);
    // Frame first: an exhausted pool must throw before the file grows.
    const std::size_t frame = grab_frame();
    std::uint64_t id = 0;
    try {
        id = file_.allocate();
    } catch (...) {
        release_frame(frame);
        throw;
    }
    frames_[frame].data.assign(file_.page_size(), std::byte{0});
    return install(frame, id);
}

BufferPool::PageRef BufferPool::install(std::size_t frame, std::uint64_t id) {
    Frame& f = frames_[frame];
    f.page_id = id;
    f.pin_count = 1;
    f.dirty = false;
    f.in_use = true;
    table_[id] = frame;
    lru_append(frame);
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
    lru_unlink(frame);
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
    // Least recently used unpinned frame: walk from the cold end past the
    // pinned ones. A pinned frame is never a victim, so its data span
    // (captured by live PageRefs) stays valid.
    std::size_t victim = lru_head_;
    while (victim != kNoFrame && frames_[victim].pin_count > 0) {
        victim = lru_next_[victim];
    }
    PGF_CHECK(victim != kNoFrame,
              "BufferPool exhausted: every frame is pinned");
    evict_frame(victim);
    return victim;
}

// Each end of a link is either a neighbour's link or the list's head or
// tail; the conditional picks which slot to rewrite.
void BufferPool::lru_unlink(std::size_t frame) {
    const std::size_t prev = lru_prev_[frame];
    const std::size_t next = lru_next_[frame];
    (prev == kNoFrame ? lru_head_ : lru_next_[prev]) = next;
    (next == kNoFrame ? lru_tail_ : lru_prev_[next]) = prev;
}

void BufferPool::lru_append(std::size_t frame) {
    lru_prev_[frame] = lru_tail_;
    lru_next_[frame] = kNoFrame;
    (lru_tail_ == kNoFrame ? lru_head_ : lru_next_[lru_tail_]) = frame;
    lru_tail_ = frame;
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

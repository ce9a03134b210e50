#include "pgf/storage/replacement.hpp"

namespace pgf {

std::string to_string(ReplacementPolicy policy) {
    switch (policy) {
        case ReplacementPolicy::kLru: return "lru";
        case ReplacementPolicy::kLruK: return "lru-k";
    }
    return "?";
}

std::optional<ReplacementPolicy> parse_policy(std::string_view text) {
    if (text == "lru") return ReplacementPolicy::kLru;
    if (text == "lru-k") return ReplacementPolicy::kLruK;
    return std::nullopt;
}

// ---------------------------------------------------------------- LRU --

LruReplacer::LruReplacer(std::size_t capacity)
    : prev_(capacity, kNil), next_(capacity, kNil), linked_(capacity, false) {}

void LruReplacer::unlink(std::size_t frame) {
    const std::size_t p = prev_[frame];
    const std::size_t n = next_[frame];
    if (p != kNil) next_[p] = n; else head_ = n;
    if (n != kNil) prev_[n] = p; else tail_ = p;
    prev_[frame] = kNil;
    next_[frame] = kNil;
    linked_[frame] = false;
}

void LruReplacer::push_back(std::size_t frame) {
    prev_[frame] = tail_;
    next_[frame] = kNil;
    if (tail_ != kNil) next_[tail_] = frame; else head_ = frame;
    tail_ = frame;
    linked_[frame] = true;
}

void LruReplacer::on_insert(std::size_t frame, Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
    push_back(frame);
}

void LruReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
    push_back(frame);
}

std::size_t LruReplacer::victim(const EvictableView& view, Mutex& /*latch*/) {
    // List order == increasing access stamps, so the first eligible frame
    // from the cold end is exactly the historical argmin-stamp choice.
    for (std::size_t i = head_; i != kNil; i = next_[i]) {
        if (view[i]) return i;
    }
    return view.size();
}

void LruReplacer::on_evict(std::size_t frame, Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
}

// -------------------------------------------------------------- LRU-K --

LruKReplacer::LruKReplacer(std::size_t capacity)
    : history_(capacity), resident_(capacity, false) {}

LruKReplacer::Key LruKReplacer::key_of(std::size_t frame) const {
    const History& h = history_[frame];
    if (h.count < kK) {
        // Infinite backward-K distance: sorts before every full-history
        // frame (flag 0); LRU among themselves by most recent stamp.
        const std::size_t last = (h.next + kK - 1) % kK;
        return Key{0, h.count == 0 ? 0 : h.stamps[last]};
    }
    // Full history: compete on the oldest retained stamp (at the cursor).
    return Key{1, h.stamps[h.next]};
}

void LruKReplacer::record(std::size_t frame) {
    History& h = history_[frame];
    h.stamps[h.next] = ++clock_;
    h.next = (h.next + 1) % kK;
    if (h.count < kK) ++h.count;
}

void LruKReplacer::reindex(std::size_t frame) {
    record(frame);
    order_.insert({key_of(frame), frame});
}

void LruKReplacer::on_insert(std::size_t frame, Mutex& /*latch*/) {
    if (resident_[frame]) order_.erase({key_of(frame), frame});
    History& h = history_[frame];
    h.next = 0;
    h.count = 0;
    resident_[frame] = true;
    reindex(frame);
}

void LruKReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    order_.erase({key_of(frame), frame});
    reindex(frame);
}

std::size_t LruKReplacer::victim(const EvictableView& view, Mutex& /*latch*/) {
    // Ascending (infinite-first, distance-stamp) order; keys are unique
    // (stamps are), so the first eligible entry equals the historical
    // linear argmin's choice.
    for (const auto& [key, frame] : order_) {
        if (view[frame]) return frame;
    }
    return view.size();
}

void LruKReplacer::on_evict(std::size_t frame, Mutex& /*latch*/) {
    if (resident_[frame]) {
        order_.erase({key_of(frame), frame});
        resident_[frame] = false;
    }
    History& h = history_[frame];
    h.next = 0;
    h.count = 0;
}

// ------------------------------------------------------------ factory --

std::unique_ptr<Replacer> make_replacer(ReplacementPolicy policy,
                                        std::size_t capacity) {
    if (policy == ReplacementPolicy::kLruK) {
        return std::make_unique<LruKReplacer>(capacity);
    }
    return std::make_unique<LruReplacer>(capacity);
}

}  // namespace pgf

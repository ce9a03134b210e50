// Pluggable replacement policies for the BufferPool.
//
// The pool owns the frames, the page table, the pin counts and the latch;
// a Replacer owns only the *recency metadata* and the victim choice. Two
// policies ship behind one interface:
//
//   - LRU    — least-recently-used, kept as an intrusive doubly-linked
//              list in access order. Victim = first evictable frame from
//              the cold end: O(1) bookkeeping per access, O(#pinned
//              prefix + 1) per eviction instead of the historical
//              O(frames) stamp scan. The list order coincides exactly
//              with increasing access stamps, so the eviction sequence
//              is identical to the pool's historical built-in LRU
//              (golden-tested).
//   - LRU-2  — evict the page whose second-most-recent access is oldest
//              (O'Neil et al.'s LRU-K with K = 2). Pages with a single
//              recorded access have infinite backward-2 distance and are
//              evicted first, LRU among themselves — one touch is not
//              evidence of reuse, which is what makes LRU-K
//              scan-resistant. Victims come off an ordered index
//              (std::set keyed by backward-2 distance): O(log frames) per
//              access/eviction.
//
// Only policies the caching artifact (bench/ext_caching) shows winning
// somewhere are kept: LRU-K beats LRU on the scan-heavy mixes at small
// pools, while CLOCK, 2Q and LFU never beat the better of the two by more
// than 0.002 hit rate.
//
// Locking contract: a Replacer has no latch of its own — its state is an
// extension of the pool's frame metadata and is guarded by the pool latch.
// Every method takes the owning pool's latch as a parameter and requires
// it held (machine-checked by Clang's capability analysis; the pool's
// `policy_` member is additionally PGF_GUARDED_BY(latch_), so even the
// pointer cannot be touched latch-free). scripts/check_locks.sh asserts
// these annotations stay present.
//
// Victim protocol: the pool passes an EvictableView — a lazy eligibility
// probe over the frames (true = in use, pin count zero, eligible) instead
// of a materialized bool vector, so building the candidate set costs
// nothing and ordered policies only probe the frames they actually
// inspect. victim() returns an index with view[i] == true, or view.size()
// when it declines every candidate (the pool treats that as exhaustion).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pgf/util/annotations.hpp"

namespace pgf {

/// Replacement policy of a BufferPool. The default-initialized value is
/// kLru, the historical pool: eviction sequence byte-identical to the
/// pre-policy implementation.
enum class ReplacementPolicy : std::uint8_t {
    kLru,
    kLruK,
};

/// Short stable tag ("lru", "lru-k") — used by bench CLI flags, JSON
/// artifacts and test names.
std::string to_string(ReplacementPolicy policy);

/// Inverse of to_string; nullopt on any other text.
std::optional<ReplacementPolicy> parse_policy(std::string_view text);

/// Lazy victim-eligibility view the pool hands to victim(): size() frames,
/// view[i] true when frame i may be evicted right now. A context + plain
/// function pointer so the pool's pin-state probe needs no allocation and
/// no virtual hop; the vector adapter exists for the policy unit tests.
class EvictableView {
public:
    using Probe = bool (*)(const void* ctx, std::size_t frame);

    EvictableView(const void* ctx, Probe probe, std::size_t size)
        : ctx_(ctx), probe_(probe), size_(size) {}

    /// Adapter over an explicit flag vector (test scripts).
    explicit EvictableView(const std::vector<bool>& flags)
        : ctx_(&flags), probe_(&vector_probe), size_(flags.size()) {}

    bool operator[](std::size_t i) const { return probe_(ctx_, i); }
    std::size_t size() const { return size_; }

private:
    static bool vector_probe(const void* ctx, std::size_t i) {
        return (*static_cast<const std::vector<bool>*>(ctx))[i];
    }

    const void* ctx_;
    Probe probe_;
    std::size_t size_;
};

/// Replacement-policy interface (see file comment for the contract).
/// Frames are dense indices [0, capacity).
class Replacer {
public:
    virtual ~Replacer() = default;

    /// A page was installed in `frame` (miss fill or allocation). Counts
    /// as the page's first access.
    virtual void on_insert(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) = 0;

    /// fetch() hit `frame` (a demand access to a resident page).
    virtual void on_access(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) = 0;

    /// Picks the victim among frames with view[i] == true; returns
    /// view.size() when no frame is eligible.
    virtual std::size_t victim(const EvictableView& view, Mutex& latch)
        PGF_REQUIRES(latch) = 0;

    /// `frame`'s page left the pool (evicted).
    virtual void on_evict(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) = 0;
};

/// LRU as an intrusive doubly-linked list in access order (head = least
/// recent). Every access unlinks and re-appends at the tail — O(1) — and
/// victim() walks from the head past pinned frames only. Because each
/// access gets a unique logical stamp, list order == increasing stamp
/// order, and the victim choice is exactly the historical "first minimal
/// stamp" linear scan's (golden-tested).
class LruReplacer final : public Replacer {
public:
    explicit LruReplacer(std::size_t capacity);

    void on_insert(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;
    void on_access(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;
    std::size_t victim(const EvictableView& view, Mutex& latch)
        PGF_REQUIRES(latch) override;
    void on_evict(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;

private:
    void unlink(std::size_t frame);
    void push_back(std::size_t frame);

    static constexpr std::size_t kNil = static_cast<std::size_t>(-1);
    std::vector<std::size_t> prev_;
    std::vector<std::size_t> next_;
    std::vector<bool> linked_;
    std::size_t head_ = kNil;  // least recently used
    std::size_t tail_ = kNil;  // most recently used
};

/// LRU-K with K = kK = 2: per frame, the last K access stamps, and an
/// ordered index keyed by backward-K distance. Victim = the index's first
/// eligible entry: frames with fewer than K accesses sort before every
/// full-history frame (infinite distance), LRU among themselves by most
/// recent access; full-history frames compete on their K-th-most-recent
/// stamp. Keys are unique (stamps are), so the index order equals the
/// historical linear argmin scan's choice exactly.
class LruKReplacer final : public Replacer {
public:
    static constexpr std::size_t kK = 2;

    explicit LruKReplacer(std::size_t capacity);

    void on_insert(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;
    void on_access(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;
    std::size_t victim(const EvictableView& view, Mutex& latch)
        PGF_REQUIRES(latch) override;
    void on_evict(std::size_t frame, Mutex& latch)
        PGF_REQUIRES(latch) override;

private:
    /// Ring of the last K stamps of one frame. count < K means the frame
    /// has not yet shown K-fold reuse.
    struct History {
        std::array<std::uint64_t, kK> stamps{};
        std::size_t next = 0;   // ring write position
        std::size_t count = 0;  // accesses recorded (capped at K)
    };

    /// (0 = infinite backward-K distance first, then the distance stamp).
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    Key key_of(std::size_t frame) const;
    void record(std::size_t frame);
    void reindex(std::size_t frame);

    std::vector<History> history_;
    std::vector<bool> resident_;
    std::set<std::pair<Key, std::size_t>> order_;  // (key, frame), ascending
    std::uint64_t clock_ = 0;
};

/// Builds the Replacer for `policy` over a pool of `capacity` frames.
std::unique_ptr<Replacer> make_replacer(ReplacementPolicy policy,
                                        std::size_t capacity);

}  // namespace pgf

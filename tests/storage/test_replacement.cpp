// Replacement-policy unit tests.
//
// The load-bearing test is the golden trace: the default-config pool must
// reproduce the *exact* eviction/writeback sequence of the historical
// built-in LRU pool (modeled here verbatim from the pre-policy
// implementation) on a randomized fetch/mark-dirty trace — resident set
// and all four counters compared after every operation. The policy
// refactor is allowed to change nothing for existing callers.
//
// The LRU-K test scripts a small access sequence against the Replacer
// interface directly and asserts the victim choices the literature
// prescribes.
#include "pgf/storage/replacement.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

TEST(ReplacementPolicyTag, RoundTripsAndAliases) {
    for (ReplacementPolicy p :
         {ReplacementPolicy::kLru, ReplacementPolicy::kLruK}) {
        auto parsed = parse_policy(to_string(p));
        ASSERT_TRUE(parsed.has_value()) << to_string(p);
        EXPECT_EQ(*parsed, p);
    }
    // Only the canonical tags parse: no aliases, no deleted policies.
    for (const char* text : {"lruk", "lru2", "twoq", "2q", "clock", "lfu"}) {
        EXPECT_FALSE(parse_policy(text).has_value()) << text;
    }
    EXPECT_FALSE(parse_policy("mru").has_value());
    EXPECT_FALSE(parse_policy("").has_value());
}

// ------------------------------------------------- golden LRU trace --

/// Verbatim model of the pre-policy BufferPool: free-frame-first scan,
/// then minimum last_use among unpinned frames; last_use = ++clock_ on
/// hit, miss fill and allocate; writeback on dirty eviction. The trace
/// below keeps pins at zero (fetch-and-release), so pin handling needs no
/// modeling.
class HistoricalLruPool {
public:
    explicit HistoricalLruPool(std::size_t capacity) : frames_(capacity) {}

    void fetch(std::uint64_t id, bool dirty) {
        auto it = table_.find(id);
        if (it != table_.end()) {
            ++hits;
            frames_[it->second].last_use = ++clock_;
            frames_[it->second].dirty |= dirty;
            return;
        }
        ++misses;
        std::size_t frame = grab_frame();
        Frame& f = frames_[frame];
        f.page = id;
        f.last_use = ++clock_;
        f.dirty = dirty;
        f.in_use = true;
        table_[id] = frame;
    }

    std::vector<std::uint64_t> resident() const {
        std::vector<std::uint64_t> pages;
        for (const auto& [page, frame] : table_) pages.push_back(page);
        std::sort(pages.begin(), pages.end());
        return pages;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

private:
    struct Frame {
        std::uint64_t page = 0;
        std::uint64_t last_use = 0;
        bool dirty = false;
        bool in_use = false;
    };

    std::size_t grab_frame() {
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (!frames_[i].in_use) return i;
        }
        std::size_t victim = frames_.size();
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (victim == frames_.size() ||
                frames_[i].last_use < frames_[victim].last_use) {
                victim = i;
            }
        }
        if (frames_[victim].dirty) ++writebacks;
        table_.erase(frames_[victim].page);
        frames_[victim].in_use = false;
        frames_[victim].dirty = false;
        ++evictions;
        return victim;
    }

    std::vector<Frame> frames_;
    std::unordered_map<std::uint64_t, std::size_t> table_;
    std::uint64_t clock_ = 0;
};

TEST(GoldenLruTrace, DefaultPoolMatchesHistoricalEvictionSequence) {
    const auto path = test::unique_temp_path("pgf_replacement_golden");
    constexpr std::size_t kCapacity = 4;
    constexpr std::uint32_t kPages = 11;
    constexpr int kOps = 3000;
    {
        auto pf = PageFile::create(path.string(), 64);
        for (std::uint64_t p = 0; p < kPages; ++p) pf.allocate();

        BufferPool pool(pf, kCapacity);  // default config == historical LRU
        HistoricalLruPool model(kCapacity);
        Rng rng(20240807);
        for (int op = 0; op < kOps; ++op) {
            // Mild skew so hits, misses and dirty evictions all occur.
            const std::uint64_t id = rng.below(2) == 0
                                         ? rng.below(3)
                                         : rng.below(kPages);
            const bool dirty = rng.below(4) == 0;
            {
                auto ref = pool.fetch(id);
                if (dirty) ref.mark_dirty();
            }
            model.fetch(id, dirty);
            ASSERT_EQ(pool.resident_pages(), model.resident())
                << "resident set diverged at op " << op;
        }
        EXPECT_EQ(pool.hits(), model.hits);
        EXPECT_EQ(pool.misses(), model.misses);
        EXPECT_EQ(pool.evictions(), model.evictions);
        EXPECT_EQ(pool.writebacks(), model.writebacks);
    }
    std::filesystem::remove(path);
}

// --------------------------------------------- policy victim scripts --

/// Drives a Replacer directly (holding a latch, as the pool would) and
/// returns victim() over an all-evictable mask of `capacity` frames.
class ReplacerScript {
public:
    explicit ReplacerScript(std::unique_ptr<Replacer> policy,
                            std::size_t capacity)
        : policy_(std::move(policy)), evictable_(capacity, true) {}

    void insert(std::size_t frame) {
        MutexLock lock(latch_);
        policy_->on_insert(frame, latch_);
    }
    void access(std::size_t frame) {
        MutexLock lock(latch_);
        policy_->on_access(frame, latch_);
    }
    std::size_t victim() {
        MutexLock lock(latch_);
        return policy_->victim(EvictableView(evictable_), latch_);
    }
    /// victim() with only `allowed` eligible.
    std::size_t victim_among(const std::vector<bool>& allowed) {
        MutexLock lock(latch_);
        return policy_->victim(EvictableView(allowed), latch_);
    }
    void evict(std::size_t frame) {
        MutexLock lock(latch_);
        policy_->on_evict(frame, latch_);
    }

private:
    Mutex latch_;
    std::unique_ptr<Replacer> policy_;
    std::vector<bool> evictable_;
};

TEST(LruKReplacer, InfiniteDistanceFramesGoFirstThenOldestKth) {
    ReplacerScript s(make_replacer(ReplacementPolicy::kLruK, 3), 3);
    // stamps:            frame 0: 1     frame 1: 2     frame 2: 3
    s.insert(0);
    s.insert(1);
    s.insert(2);
    // frame 0: +4,5 (full history 4,5); frame 1: +6 (full 2,6);
    // frame 2 stays at one access = infinite backward-K distance.
    s.access(0);
    s.access(0);
    s.access(1);
    EXPECT_EQ(s.victim(), 2u) << "single-access frame must go first";

    // All infinite: LRU by most-recent access among them. A second access
    // gives a frame full history, so it leaves the infinite class.
    ReplacerScript t(make_replacer(ReplacementPolicy::kLruK, 3), 3);
    t.insert(0);  // stamp 1
    t.insert(1);  // stamp 2
    t.insert(2);  // stamp 3
    EXPECT_EQ(t.victim(), 0u);
    t.access(0);  // stamp 4: frame 0 history {1,4}, finite distance
    EXPECT_EQ(t.victim(), 1u);
    t.evict(1);   // frame 1 leaves; its history resets
    t.insert(1);  // stamp 5: single access again, infinite distance
    EXPECT_EQ(t.victim(), 2u) << "oldest single-access frame goes first";

    // Full histories compete on the K-th most recent (oldest retained):
    // frame 0 history {4,5}, frame 1 history {2,6} -> frame 1's Kth (2)
    // is older, so with frame 2 excluded frame 1 loses.
    std::vector<bool> no2{true, true, false};
    EXPECT_EQ(s.victim_among(no2), 1u);
    // A hot burst on frame 1 (history {7,8}) makes frame 0's Kth (4) the
    // oldest.
    s.access(1);
    s.access(1);
    EXPECT_EQ(s.victim_among(no2), 0u);
}

}  // namespace
}  // namespace pgf

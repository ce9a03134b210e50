#include "pgf/storage/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pgf/storage/page.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

class BufferPoolTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_bufpool_test");

    void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(BufferPoolTest, AllocateWriteReadThroughCache) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 4);
    std::uint64_t id;
    {
        auto page = pool.allocate();
        id = page.page_id();
        page.data()[0] = std::byte{0xAB};
        page.mark_dirty();
    }
    auto page = pool.fetch(id);
    EXPECT_EQ(page.data()[0], std::byte{0xAB});
    EXPECT_EQ(pool.hits(), 1u);  // still resident
}

TEST_F(BufferPoolTest, DirtyPagesSurviveEviction) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2);
    for (int i = 0; i < 6; ++i) {
        auto page = pool.allocate();
        page.data()[0] = static_cast<std::byte>(0x10 + i);
        page.mark_dirty();
    }
    // Capacity 2 with 6 pages: four evictions + writebacks happened.
    EXPECT_GE(pool.evictions(), 4u);
    EXPECT_GE(pool.writebacks(), 4u);
    for (std::uint64_t i = 0; i < 6; ++i) {
        auto page = pool.fetch(i);
        EXPECT_EQ(page.data()[0], static_cast<std::byte>(0x10 + i)) << i;
    }
}

TEST_F(BufferPoolTest, LruKeepsHotPages) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2);
    for (int i = 0; i < 3; ++i) pf.allocate();
    (void)pool.fetch(0);
    (void)pool.fetch(1);
    (void)pool.fetch(0);  // refresh 0
    (void)pool.fetch(2);  // evicts 1
    std::uint64_t misses_before = pool.misses();
    (void)pool.fetch(0);
    EXPECT_EQ(pool.misses(), misses_before);  // 0 still resident
    (void)pool.fetch(1);
    EXPECT_EQ(pool.misses(), misses_before + 1);  // 1 was evicted
}

TEST_F(BufferPoolTest, ExhaustedAllocateLeavesFileUnchanged) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 1);
    {
        auto held = pool.allocate();
        ASSERT_EQ(held.page_id(), 0u);
        // The only frame is pinned: no frame, so no new page either.
        EXPECT_THROW(pool.allocate(), CheckError);
        EXPECT_EQ(pf.page_count(), 1u) << "a failed allocate grew the file";
    }
    EXPECT_EQ(pool.allocate().page_id(), 1u);
    EXPECT_EQ(pf.page_count(), 2u);
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2);
    for (int i = 0; i < 3; ++i) pf.allocate();
    auto p0 = pool.fetch(0);
    auto p1 = pool.fetch(1);
    // Both frames pinned: the third fetch has no victim.
    EXPECT_THROW(pool.fetch(2), CheckError);
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyResidentPages) {
    auto pf = PageFile::create(path_.string(), 128);
    {
        BufferPool pool(pf, 8);
        auto page = pool.allocate();
        page.data()[5] = std::byte{0x77};
        page.mark_dirty();
        pool.flush_all();
        EXPECT_GE(pool.writebacks(), 1u);
    }
    std::vector<std::byte> out(128);
    pf.read(0, out);
    // PageRef::data() is the payload view past the durability header.
    EXPECT_EQ(out[kPageHeaderBytes + 5], std::byte{0x77});
}

TEST_F(BufferPoolTest, DestructorFlushes) {
    auto pf = PageFile::create(path_.string(), 128);
    {
        BufferPool pool(pf, 8);
        auto page = pool.allocate();
        page.data()[9] = std::byte{0x3C};
        page.mark_dirty();
    }
    std::vector<std::byte> out(128);
    pf.read(0, out);
    EXPECT_EQ(out[kPageHeaderBytes + 9], std::byte{0x3C});
}

TEST_F(BufferPoolTest, StatsStartAtZero) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 3);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.misses(), 0u);
    EXPECT_EQ(pool.evictions(), 0u);
    EXPECT_EQ(pool.resident(), 0u);
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_THROW(BufferPool(pf, 0), CheckError);
}

TEST_F(BufferPoolTest, ResetSnapshotsAndZeroesCounters) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2);
    for (int i = 0; i < 3; ++i) pf.allocate();
    (void)pool.fetch(0);
    (void)pool.fetch(1);
    (void)pool.fetch(0);  // hit
    {
        auto page = pool.fetch(2);  // evicts, and dirty so it writes back
        page.mark_dirty();
    }
    pool.flush_all();

    BufferPool::Stats stats = pool.reset();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_GE(stats.writebacks, 1u);

    // Counters are zeroed but the page contents and recency are untouched:
    // the snapshot is a batch boundary, not a cache drop.
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.misses(), 0u);
    EXPECT_EQ(pool.evictions(), 0u);
    EXPECT_EQ(pool.writebacks(), 0u);
    (void)pool.fetch(2);  // still resident from before the reset
    BufferPool::Stats next = pool.reset();
    EXPECT_EQ(next.hits, 1u);
    EXPECT_EQ(next.misses, 0u);
    EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolTest, PinnedFramesTracksLivePageRefs) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 3);
    for (int i = 0; i < 2; ++i) pf.allocate();
    EXPECT_EQ(pool.pinned_frames(), 0u);
    {
        auto p0 = pool.fetch(0);
        EXPECT_EQ(pool.pinned_frames(), 1u);
        auto p0_again = pool.fetch(0);  // same frame, two pins
        auto p1 = pool.fetch(1);
        EXPECT_EQ(pool.pinned_frames(), 2u);
    }
    // Dropping the refs unpins but keeps the pages resident.
    EXPECT_EQ(pool.pinned_frames(), 0u);
    EXPECT_EQ(pool.resident(), 2u);
}

TEST_F(BufferPoolTest, MoveOfPageRefTransfersPin) {
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 1);
    pf.allocate();
    {
        auto p = pool.fetch(0);
        auto q = std::move(p);
        EXPECT_EQ(q.page_id(), 0u);
        // Still pinned exactly once: with capacity 1, fetching another page
        // must fail while q lives.
        pf.allocate();
        EXPECT_THROW(pool.fetch(1), CheckError);
    }
    // After q's destruction the frame is evictable again.
    EXPECT_NO_THROW(pool.fetch(1));
}

// ------------------------------------------------- golden LRU trace --

/// Verbatim model of the historical BufferPool: free-frame-first scan,
/// then minimum last_use among unpinned frames; last_use = ++clock_ on
/// hit and miss fill; writeback on dirty eviction.
class HistoricalLruPool {
public:
    explicit HistoricalLruPool(std::size_t capacity) : frames_(capacity) {}

    /// A fetch; `pin` leaves the page pinned once more afterwards.
    void fetch(std::uint64_t id, bool dirty, bool pin) {
        auto it = table_.find(id);
        std::size_t frame = 0;
        if (it != table_.end()) {
            ++hits;
            frame = it->second;
        } else {
            ++misses;
            frame = grab_frame();
            frames_[frame] = Frame{id, 0, 0, false, true};
            table_[id] = frame;
        }
        Frame& f = frames_[frame];
        f.last_use = ++clock_;
        f.dirty |= dirty;
        if (pin) ++f.pins;
    }

    void unpin(std::uint64_t id) { --frames_[table_.at(id)].pins; }

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
    /// Evictions whose least recently used frame was pinned, so the
    /// victim came from further up the list.
    std::uint64_t pinned_skips = 0;

private:
    struct Frame {
        std::uint64_t page = 0;
        std::uint64_t last_use = 0;
        std::uint32_t pins = 0;
        bool dirty = false;
        bool in_use = false;
    };

    std::size_t grab_frame() {
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (!frames_[i].in_use) return i;
        }
        std::size_t victim = frames_.size();
        std::size_t oldest = 0;
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (frames_[i].last_use < frames_[oldest].last_use) oldest = i;
            if (frames_[i].pins > 0) continue;
            if (victim == frames_.size() ||
                frames_[i].last_use < frames_[victim].last_use) {
                victim = i;
            }
        }
        if (victim != oldest) ++pinned_skips;
        if (frames_[victim].dirty) ++writebacks;
        table_.erase(frames_[victim].page);
        frames_[victim].in_use = false;
        ++evictions;
        return victim;
    }

    std::vector<Frame> frames_;
    std::unordered_map<std::uint64_t, std::size_t> table_;
    std::uint64_t clock_ = 0;
};

TEST(GoldenLruTrace, DefaultPoolMatchesHistoricalEvictionSequence) {
    const auto path = test::unique_temp_path("pgf_lru_golden");
    constexpr std::size_t kCapacity = 4;
    constexpr std::uint32_t kPages = 11;
    constexpr int kOps = 3000;
    {
        auto pf = PageFile::create(path.string(), 64);
        for (std::uint64_t p = 0; p < kPages; ++p) pf.allocate();

        BufferPool pool(pf, kCapacity);
        HistoricalLruPool model(kCapacity);
        // Up to kCapacity - 1 live pins: a fetch always finds a victim,
        // but the cold end of the list is often pinned and must be walked
        // past. The pins draw from their own stream, so the page/dirty
        // sequence is the historical trace's.
        std::array<std::optional<BufferPool::PageRef>, kCapacity - 1> held;
        Rng rng(20240807);
        Rng pin_rng(7);
        for (int op = 0; op < kOps; ++op) {
            // Mild skew so hits, misses and dirty evictions all occur.
            const std::uint64_t id = rng.below(2) == 0
                                         ? rng.below(3)
                                         : rng.below(kPages);
            const bool dirty = rng.below(4) == 0;
            auto& slot = held[pin_rng.below(kCapacity - 1)];
            if (slot.has_value() && pin_rng.below(2) == 0) {
                model.unpin(slot->page_id());
                slot.reset();
            }
            const bool keep = !slot.has_value() && pin_rng.below(2) == 0;
            {
                auto ref = pool.fetch(id);
                if (dirty) ref.mark_dirty();
                if (keep) slot.emplace(std::move(ref));
            }
            model.fetch(id, dirty, keep);
            ASSERT_EQ(pool.resident_pages(), model.resident())
                << "resident set diverged at op " << op;
        }
        EXPECT_GT(model.pinned_skips, 0u)
            << "the trace never pinned the least recently used frame";
        EXPECT_EQ(pool.hits(), model.hits);
        EXPECT_EQ(pool.misses(), model.misses);
        EXPECT_EQ(pool.evictions(), model.evictions);
        EXPECT_EQ(pool.writebacks(), model.writebacks);
    }
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace pgf

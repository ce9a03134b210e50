// Concurrent BufferPool stress tests (run under the tsan preset in CI).
//
// The pool's contract under concurrency: fetch/allocate/mark_dirty/unpin
// are safe from any number of threads; a pinned frame's bytes are stable;
// only the *bytes of one page* are the caller's responsibility (page-level
// latching lives above the pool). The tests therefore let threads hammer
// the shared pool metadata — table, pins, LRU, writebacks — while each
// page's bytes have a single writer, so TSan findings point at the pool,
// not the test.
//
// Exhaustion deliberately still throws (same as single-threaded), so
// stressors bound their in-flight pins with a counting semaphore instead
// of expecting fetch to wait.
#include "pgf/storage/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <semaphore>
#include <thread>
#include <vector>

#include "pgf/storage/page.hpp"
#include "pgf/util/check.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

// Parameterized over every replacement policy: the concurrency contract
// (pins gate eviction, no lost updates, exact hit+miss ledger) is policy-
// independent, so the same stressors must pass for LRU and LRU-K alike.
class BufferPoolConcurrentTest
    : public ::testing::TestWithParam<ReplacementPolicy> {
protected:
    std::filesystem::path path_ =
        test::unique_temp_path("pgf_bufpool_conc_test");

    void TearDown() override { std::filesystem::remove(path_); }
};

// 2-frame pool, 8 threads, 8 pages: every fetch contends for a frame, so
// the whole evict/writeback/reload machinery runs constantly. Each thread
// owns one page and increments a little-endian counter in it; every
// increment must survive the page's round trips through disk, so a single
// lost update (torn eviction, stale reload, aliased frame) shows up in the
// final tally.
TEST_P(BufferPoolConcurrentTest, TinyPoolEvictionStressKeepsEveryUpdate) {
    constexpr unsigned kThreads = 8;
    constexpr int kIters = 400;
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2, GetParam());
    for (unsigned t = 0; t < kThreads; ++t) {
        auto page = pool.allocate();
        ASSERT_EQ(page.page_id(), t);
        page.mark_dirty();
    }

    // Two permits for two frames: at most two pins are ever outstanding,
    // so fetch never sees an all-pinned pool.
    std::counting_semaphore<2> frames(2);
    auto bump = [&](std::uint64_t page_id) {
        frames.acquire();
        {
            auto page = pool.fetch(page_id);
            auto data = page.data();
            std::uint64_t v = 0;
            for (std::size_t i = 0; i < 8; ++i) {
                v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
            }
            ++v;
            for (std::size_t i = 0; i < 8; ++i) {
                data[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
            }
            page.mark_dirty();
        }
        frames.release();
    };

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) bump(t);
        });
    }
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(pool.pinned_frames(), 0u);
    // Every fetch is exactly one hit or one miss (allocate counts as
    // neither), so the counters must tally the fetches exactly.
    EXPECT_EQ(pool.hits() + pool.misses(),
              static_cast<std::uint64_t>(kThreads) * kIters);

    pool.flush_all();
    std::vector<std::byte> raw(128);
    for (unsigned t = 0; t < kThreads; ++t) {
        pf.read(t, raw);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            // PageRef::data() is the payload view past the page header.
            v |= static_cast<std::uint64_t>(raw[kPageHeaderBytes + i])
                 << (8 * i);
        }
        EXPECT_EQ(v, static_cast<std::uint64_t>(kIters)) << "page " << t;
    }
}

// Many readers share one frame: all pins land on the same page, so the
// pin-count bookkeeping and the PageRef data-span snapshot are exercised
// with maximal aliasing. Readers verify the bytes they see.
TEST_P(BufferPoolConcurrentTest, ConcurrentReadersShareOneFrame) {
    constexpr unsigned kThreads = 8;
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 2, GetParam());
    {
        auto page = pool.allocate();
        auto data = page.data();
        for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<std::byte>(i & 0xff);
        }
        page.mark_dirty();
    }

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                auto page = pool.fetch(0);
                auto data = page.data();
                for (std::size_t k = 0; k < data.size(); ++k) {
                    if (data[k] != static_cast<std::byte>(k & 0xff)) {
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                        break;
                    }
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(pool.pinned_frames(), 0u);
    EXPECT_EQ(pool.misses(), 0u);  // page 0 never left the pool: all hits
}

// Concurrent allocate() calls must hand out distinct pages and keep each
// initial stamp intact through eviction pressure.
TEST_P(BufferPoolConcurrentTest, ConcurrentAllocationsAreDistinct) {
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 16;
    auto pf = PageFile::create(path_.string(), 128);
    BufferPool pool(pf, 4, GetParam());  // 4 frames, <= 4 concurrent pins

    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                auto page = pool.allocate();
                ids[t].push_back(page.page_id());
                page.data()[0] = static_cast<std::byte>(page.page_id() & 0xff);
                page.mark_dirty();
            }
        });
    }
    for (std::thread& t : threads) t.join();

    std::vector<std::uint64_t> all;
    for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "two allocations returned the same page";
    EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);

    pool.flush_all();
    std::vector<std::byte> raw(128);
    for (std::uint64_t id : all) {
        pf.read(id, raw);
        EXPECT_EQ(raw[kPageHeaderBytes], static_cast<std::byte>(id & 0xff))
            << "page " << id;
    }
}

// Unpins racing evictions: one half of the threads cycles pins on a hot
// page while the other half streams through cold pages, forcing the hot
// frame's pin count to gate eviction correctly.
TEST_P(BufferPoolConcurrentTest, PinsGateEvictionUnderChurn) {
    auto pf = PageFile::create(path_.string(), 128);
    constexpr std::uint64_t kCold = 6;
    BufferPool pool(pf, 3, GetParam());
    for (std::uint64_t i = 0; i < 1 + kCold; ++i) pf.allocate();
    {
        auto hot = pool.fetch(0);
        hot.data()[0] = std::byte{0x5A};
        hot.mark_dirty();
    }

    std::atomic<bool> stop{false};
    std::atomic<int> bad_reads{0};
    // Two churners + two pinners, 3 frames: a churner and a pinner can
    // each hold a pin and there is still a frame to steal.
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            std::uint64_t next = 1;
            while (!stop.load(std::memory_order_relaxed)) {
                (void)pool.fetch(1 + (next++ % kCold));
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                auto hot = pool.fetch(0);
                if (hot.data()[0] != std::byte{0x5A}) {
                    bad_reads.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
    stop.store(true, std::memory_order_relaxed);
    threads[0].join();
    threads[1].join();

    EXPECT_EQ(bad_reads.load(), 0);
    EXPECT_EQ(pool.pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BufferPoolConcurrentTest,
    ::testing::Values(ReplacementPolicy::kLru, ReplacementPolicy::kLruK),
    [](const ::testing::TestParamInfo<ReplacementPolicy>& param_info) {
        return param_info.param == ReplacementPolicy::kLru ? "lru" : "lruk";
    });

}  // namespace
}  // namespace pgf

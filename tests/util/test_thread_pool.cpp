#include "pgf/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

TEST(ThreadPool, ParallelismCountsCallingThread) {
    ThreadPool solo(1);
    EXPECT_EQ(solo.parallelism(), 2u);
    ThreadPool quad(3);
    EXPECT_EQ(quad.parallelism(), 4u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        for (std::size_t n : {1u, 5u, 100u, 4097u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                }
            });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
            }
        }
    }
}

TEST(ThreadPool, ZeroItemsIsNoop) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_EQ(pool.chunk_size(0), 0u);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
    ThreadPool pool(3);
    const std::size_t n = 1000;
    std::size_t chunk = pool.chunk_size(n);
    EXPECT_GT(chunk, 0u);
    // Sum over disjoint chunks equals the serial sum.
    std::vector<double> xs(n);
    Rng rng(3);
    for (auto& x : xs) x = rng.uniform();
    std::vector<double> partial((n + chunk - 1) / chunk, 0.0);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += xs[i];
        partial[begin / chunk] = s;
    });
    double parallel_sum = 0.0;
    for (double s : partial) parallel_sum += s;
    double serial_sum = std::accumulate(xs.begin(), xs.end(), 0.0);
    EXPECT_DOUBLE_EQ(parallel_sum, serial_sum);
}

TEST(ThreadPool, MapReduceArgminIsDeterministic) {
    // Duplicate minima: the reduction must pick the first occurrence, like
    // a serial left-to-right scan, on every run and pool size.
    std::vector<double> xs(5000, 1.0);
    xs[1234] = 0.5;
    xs[1235] = 0.5;
    xs[4000] = 0.5;
    struct Best {
        double val;
        std::size_t idx;
    };
    for (unsigned threads : {1u, 2u, 5u}) {
        ThreadPool pool(threads);
        for (int run = 0; run < 10; ++run) {
            Best best = pool.map_reduce(
                xs.size(), Best{1e300, xs.size()},
                [&](std::size_t begin, std::size_t end) {
                    Best local{1e300, xs.size()};
                    for (std::size_t i = begin; i < end; ++i) {
                        if (xs[i] < local.val) local = Best{xs[i], i};
                    }
                    return local;
                },
                [](const Best& acc, const Best& v) {
                    return v.val < acc.val ? v : acc;
                });
            ASSERT_EQ(best.idx, 1234u);
            ASSERT_DOUBLE_EQ(best.val, 0.5);
        }
    }
}

TEST(ThreadPool, ExplicitChunkCoversEveryIndexExactlyOnce) {
    for (unsigned threads : {1u, 3u}) {
        ThreadPool pool(threads);
        for (std::size_t chunk : {1u, 3u, 64u}) {
            const std::size_t n = 257;
            std::vector<std::atomic<int>> hits(n);
            pool.parallel_for_chunk(
                n, chunk, [&](std::size_t begin, std::size_t end) {
                    EXPECT_LE(end - begin, chunk);
                    // Every range starts on a chunk boundary: tasks can key
                    // per-chunk state off begin / chunk.
                    EXPECT_EQ(begin % chunk, 0u);
                    for (std::size_t i = begin; i < end; ++i) {
                        hits[i].fetch_add(1, std::memory_order_relaxed);
                    }
                });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1)
                    << "chunk=" << chunk << " i=" << i;
            }
        }
    }
}

TEST(ThreadPool, ManySmallDispatchesSurvive) {
    // Stress the wakeup/completion protocol with thousands of tiny tasks.
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 2000; ++round) {
        pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
            total.fetch_add(end - begin, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 2000u * 8u);
}

// A throwing fn reaches the caller as that exception, whichever thread
// ran the failing chunk, and leaves the pool usable: no std::terminate
// from a worker, no chunk left outstanding to fail the next call.
TEST(ThreadPool, ThrowingChunkRethrowsOnCallerAndPoolStaysUsable) {
    ThreadPool pool(3);
    auto sum = [&pool](std::size_t n) {
        std::atomic<std::size_t> total{0};
        pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
            total.fetch_add(end - begin, std::memory_order_relaxed);
        });
        return total.load();
    };
    for (int round = 0; round < 200; ++round) {
        // Chunk 0 fails; whoever claims it (caller or worker) varies.
        EXPECT_THROW(pool.parallel_for(64,
                                       [](std::size_t begin, std::size_t) {
                                           if (begin == 0) {
                                               throw std::runtime_error(
                                                   "chunk 0");
                                           }
                                       }),
                     std::runtime_error);
        ASSERT_EQ(sum(64), 64u) << "round " << round;
        // Every chunk fails, so workers throw too; one exception wins.
        EXPECT_THROW(pool.parallel_for_chunk(
                         64, 1,
                         [](std::size_t, std::size_t) {
                             throw std::logic_error("every chunk");
                         }),
                     std::logic_error);
        ASSERT_EQ(sum(7), 7u) << "round " << round;
    }
}

#if PGF_DCHECK_ACTIVE
// Reentrant submission (fn submitting to the pool that runs it) would
// deadlock on the submit mutex; checked builds fail fast instead. The
// CheckError reaches the outer caller like any exception from fn, whether
// the offending chunk ran on the calling thread or on a worker.
TEST(ThreadPool, ReentrantSubmissionThrowsInCheckedBuilds) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(8,
                                   [&](std::size_t, std::size_t) {
                                       pool.parallel_for(
                                           1, [](std::size_t, std::size_t) {});
                                   }),
                 CheckError);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
        total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 8u);
}

// Nested parallelism across *different* pools stays legal: the outer
// sweep-style pool may drive an inner kernel pool from inside fn (the
// --inner-threads path), and the reentrancy check must not misfire.
TEST(ThreadPool, NestedDistinctPoolsAreNotFlaggedAsReentrant) {
    ThreadPool outer(2);
    ThreadPool inner(2);
    std::atomic<std::size_t> total{0};
    outer.parallel_for_chunk(4, 1, [&](std::size_t, std::size_t) {
        inner.parallel_for(16, [&](std::size_t begin, std::size_t end) {
            total.fetch_add(end - begin, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 4u * 16u);
}
#endif  // PGF_DCHECK_ACTIVE

}  // namespace
}  // namespace pgf

#include "pgf/util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "pgf/util/check.hpp"

namespace pgf {
namespace {

TEST(BoundedQueue, FifoSingleThread) {
    BoundedMpmcQueue<int> q(8);
    EXPECT_EQ(q.capacity(), 8u);
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.size(), 5u);
    int v = -1;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, RejectsZeroCapacity) {
    EXPECT_THROW(BoundedMpmcQueue<int>(0), CheckError);
}

TEST(BoundedQueue, FullQueueBlocksProducerUntilPop) {
    BoundedMpmcQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    // The third push must block until a slot frees: the flag cannot be set
    // before this thread pops (no timing dependence — push() returns only
    // after the pop makes room).
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(3));
        pushed.store(true);
    });
    EXPECT_FALSE(pushed.load());
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 3);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
    BoundedMpmcQueue<int> q(4);
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        int v = 0;
        EXPECT_FALSE(q.pop(v));  // woken by close, nothing to drain
        returned.store(true);
    });
    q.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, CloseDrainsRemainingItemsFirst) {
    BoundedMpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(10));
    EXPECT_TRUE(q.push(11));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(12));  // no admissions after close...
    int v = 0;
    ASSERT_TRUE(q.pop(v));  // ...but queued items still come out
    EXPECT_EQ(v, 10);
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 11);
    EXPECT_FALSE(q.pop(v));
}

TEST(BoundedQueue, TryPopOnEmptyQueueReturnsFalse) {
    BoundedMpmcQueue<int> q(4);
    int v = -1;
    EXPECT_FALSE(q.try_pop(v));
    EXPECT_EQ(v, -1);  // untouched
}

TEST(BoundedQueue, TryPopTakesItemsInFifoOrder) {
    BoundedMpmcQueue<int> q(4);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.push(i));
    int v = -1;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.try_pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.try_pop(v));
}

TEST(BoundedQueue, TryPopOnClosedAndDrainedQueueReturnsFalse) {
    BoundedMpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(7));
    q.close();
    int v = 0;
    ASSERT_TRUE(q.try_pop(v));  // closed, not yet drained
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(q.try_pop(v));
}

TEST(BoundedQueue, TryPopUnblocksProducerOnFullQueue) {
    BoundedMpmcQueue<int> q(1);
    EXPECT_TRUE(q.push(1));
    // The second push blocks until try_pop frees the slot, so the flag
    // cannot be set before it does.
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2));
        pushed.store(true);
    });
    EXPECT_FALSE(pushed.load());
    int v = 0;
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, MpmcStressDeliversEveryItemExactlyOnce) {
    // Many producers and consumers over a queue much smaller than the item
    // count, so both the not_full and not_empty waits are exercised. Every
    // pushed value must come out exactly once.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 500;
    BoundedMpmcQueue<int> q(3);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(q.push(p * kPerProducer + i));
            }
        });
    }
    std::vector<std::vector<int>> received(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&q, &received, c] {
            int v = 0;
            while (q.pop(v)) {
                received[static_cast<std::size_t>(c)].push_back(v);
            }
        });
    }
    for (auto& t : producers) t.join();
    q.close();
    for (auto& t : consumers) t.join();

    std::multiset<int> all;
    for (const auto& r : received) all.insert(r.begin(), r.end());
    ASSERT_EQ(all.size(),
              static_cast<std::size_t>(kProducers) * kPerProducer);
    for (int x = 0; x < kProducers * kPerProducer; ++x) {
        EXPECT_EQ(all.count(x), 1u) << x;
    }
}

TEST(BoundedQueue, PerProducerOrderPreserved) {
    // FIFO per producer: a single consumer must see each producer's items
    // in push order even when producers interleave.
    constexpr int kProducers = 3;
    constexpr int kPerProducer = 400;
    BoundedMpmcQueue<std::pair<int, int>> q(2);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(q.push({p, i}));
            }
        });
    }
    std::vector<int> next(kProducers, 0);
    std::thread consumer([&] {
        std::pair<int, int> v;
        while (q.pop(v)) {
            const auto p = static_cast<std::size_t>(v.first);
            EXPECT_EQ(v.second, next[p]) << "producer " << v.first;
            next[p] = v.second + 1;
        }
    });
    for (auto& t : producers) t.join();
    q.close();
    consumer.join();
    for (const int n : next) EXPECT_EQ(n, kPerProducer);
}

}  // namespace
}  // namespace pgf

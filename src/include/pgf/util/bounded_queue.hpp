// Bounded multi-producer / multi-consumer queue — the node task queues of
// the concurrent serving path (pgf/parallel/query_engine.hpp) and the
// block hand-off of the external sort's merge thread.
//
// Semantics:
//   - push() blocks while the queue is full; the bound is what turns a
//     producer into a closed loop (backpressure instead of an unbounded
//     backlog).
//   - pop() blocks while the queue is empty and returns false only when
//     the queue has been close()d AND drained, so shutdown never drops
//     in-flight items.
//   - try_pop() never blocks; a consumer polls with it before it parks
//     in pop().
//   - close() wakes every waiter; pushes after close() are rejected
//     (return false) rather than silently accepted.
//
// Lock discipline (machine-checked via pgf/util/annotations.hpp): one
// mutex guards the ring and the closed flag; waits go through
// MutexLock::wait in explicit while-loops so the capability analysis sees
// every guarded read under the lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <utility>

#include "pgf/util/annotations.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

template <typename T>
class BoundedMpmcQueue {
public:
    /// `capacity` = maximum queued items; must be >= 1.
    explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
        PGF_CHECK(capacity_ >= 1, "bounded queue needs capacity >= 1");
    }

    BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
    BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

    /// Blocks until space is available (or the queue closes); returns
    /// false iff the queue was closed before the item could be enqueued.
    bool push(T item) PGF_EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            while (!closed_ && items_.size() >= capacity_) {
                lock.wait(not_full_);
            }
            if (closed_) return false;
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return true;
    }

    /// Blocks until an item is available; returns false when the queue is
    /// closed and fully drained (the consumer-side shutdown signal).
    bool pop(T& out) PGF_EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            while (items_.empty() && !closed_) {
                lock.wait(not_empty_);
            }
            if (items_.empty()) return false;  // closed and drained
            out = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notify_one();
        return true;
    }

    /// Never blocks: takes the front item if there is one. Returns false
    /// on an empty queue, closed or not.
    bool try_pop(T& out) PGF_EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            if (items_.empty()) return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notify_one();
        return true;
    }

    /// Rejects future pushes and wakes every blocked producer/consumer.
    /// Items already queued remain poppable (close-then-drain shutdown).
    void close() PGF_EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    bool closed() const PGF_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return closed_;
    }

    std::size_t size() const PGF_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

private:
    const std::size_t capacity_;
    mutable Mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_ PGF_GUARDED_BY(mutex_);
    bool closed_ PGF_GUARDED_BY(mutex_) = false;
};

}  // namespace pgf

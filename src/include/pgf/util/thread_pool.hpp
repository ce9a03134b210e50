// Persistent worker pool with a deterministic parallel_for.
//
// The O(N^2) declustering algorithms (minimax, nearest-neighbor scans)
// spend their time in embarrassingly parallel sweeps over the not-yet-
// assigned vertex set; this pool parallelizes those sweeps while keeping
// results bit-identical to the serial code: chunks are fixed-size and
// indexed, and reductions combine per-chunk results in chunk order.
//
// The calling thread participates in the work, so a pool of size 1 degrades
// to plain serial execution with no synchronization beyond one mutex.
//
// Lock discipline (machine-checked via pgf/util/annotations.hpp):
// submit_mutex_ serializes whole parallel_for invocations and is always
// acquired before mutex_, which guards the in-flight Task state and the
// shutdown flag shared with the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "pgf/util/annotations.hpp"

namespace pgf {

class ThreadPool {
public:
    /// Creates `threads` workers in addition to the calling thread; 0 means
    /// hardware_concurrency - 1 (so total parallelism = core count).
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total parallelism (workers + the calling thread).
    unsigned parallelism() const { return static_cast<unsigned>(workers_.size()) + 1; }

    /// Invokes fn(begin, end) over disjoint chunks covering [0, n).
    /// Blocks until every chunk completed.
    ///
    /// If fn throws, on any thread, no further chunks are started; once
    /// the chunks already running have finished, the first exception is
    /// rethrown on the calling thread and the pool stays usable.
    ///
    /// Safe to call from several external threads at once: invocations
    /// serialize on an internal submit mutex, so one shared pool can back
    /// concurrent sweep tasks. It remains non-reentrant — fn (or anything
    /// it calls) must never submit to the same pool, or the submit mutex
    /// deadlocks. Checked builds (PGF_DCHECK_ACTIVE) fail fast instead: a
    /// reentrant submission throws CheckError, which reaches the outer
    /// caller like any other exception from fn. Submitting to a
    /// *different* pool from inside fn is fine — nested pools track
    /// per-thread which pool is running them.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// Same, with a caller-chosen chunk size. chunk = 1 gives dynamic
    /// per-index scheduling — the right granularity when the n work items
    /// have very different durations (e.g. whole sweep configurations,
    /// where a minimax run dwarfs a disk-modulo run).
    void parallel_for_chunk(std::size_t n, std::size_t chunk,
                            const std::function<void(std::size_t,
                                                     std::size_t)>& fn);

    /// Deterministic parallel argmin: reduce(chunk_index, begin, end) maps
    /// each chunk to a value; combine(acc, value) folds them IN CHUNK ORDER
    /// on the calling thread. (Provided as a convenience built on
    /// parallel_for.)
    template <typename Value, typename Reduce, typename Combine>
    Value map_reduce(std::size_t n, Value init, Reduce reduce,
                     Combine combine) {
        const std::size_t chunk = chunk_size(n);
        if (chunk == 0) return init;
        const std::size_t chunks = (n + chunk - 1) / chunk;
        std::vector<Value> partial(chunks, init);
        parallel_for(n, [&](std::size_t begin, std::size_t end) {
            partial[begin / chunk] = reduce(begin, end);
        });
        Value acc = init;
        for (const Value& v : partial) acc = combine(acc, v);
        return acc;
    }

    /// Chunk size used for n items (exposed so map_reduce's chunk->index
    /// arithmetic is testable).
    std::size_t chunk_size(std::size_t n) const;

private:
    using Fn = std::function<void(std::size_t, std::size_t)>;

    void worker_loop();
    /// Runs one claimed chunk and retires it: the first exception of the
    /// task is kept for the caller (and cancels the unclaimed chunks), and
    /// the chunk always counts as finished. Returns true when it was the
    /// last outstanding chunk.
    bool run_chunk(const Fn& fn, std::size_t begin, std::size_t end)
        PGF_EXCLUDES(mutex_);

    struct Task {
        const Fn* fn = nullptr;
        std::size_t n = 0;
        std::size_t chunk = 0;
        std::size_t next = 0;       ///< next chunk start to claim
        std::size_t outstanding = 0;  ///< chunks not yet finished
        std::uint64_t generation = 0;
        std::exception_ptr error;     ///< first exception thrown by fn
    };

    /// Serializes whole parallel_for invocations (held for the full call).
    Mutex submit_mutex_ PGF_ACQUIRED_BEFORE(mutex_);
    Mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    Task task_ PGF_GUARDED_BY(mutex_);
    bool shutdown_ PGF_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
};

}  // namespace pgf

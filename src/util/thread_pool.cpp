#include "pgf/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "pgf/util/check.hpp"

namespace pgf {

namespace {

// Innermost pool currently executing parallel_for chunks on this thread.
// A reentrant submission (fn submitting to the pool that is running it)
// would self-deadlock on submit_mutex_; the thread-local lets checked
// builds fail fast with a diagnosable error instead. Saved/restored as a
// stack so nested *different* pools (an outer sweep pool driving an inner
// kernel pool) stay legal.
thread_local const ThreadPool* tls_running_pool = nullptr;

class RunningPoolScope {
public:
    explicit RunningPoolScope(const ThreadPool* pool)
        : saved_(tls_running_pool) {
        tls_running_pool = pool;
    }
    ~RunningPoolScope() { tls_running_pool = saved_; }

    RunningPoolScope(const RunningPoolScope&) = delete;
    RunningPoolScope& operator=(const RunningPoolScope&) = delete;

private:
    const ThreadPool* saved_;
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 1 ? hw - 1 : 0;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::chunk_size(std::size_t n) const {
    if (n == 0) return 0;
    // ~4 chunks per thread bounds the imbalance while keeping per-chunk
    // dispatch overhead negligible.
    std::size_t target = static_cast<std::size_t>(parallelism()) * 4;
    return std::max<std::size_t>(1, (n + target - 1) / target);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
    parallel_for_chunk(n, chunk_size(n), fn);
}

void ThreadPool::parallel_for_chunk(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    PGF_CHECK(chunk >= 1, "parallel_for_chunk requires chunk >= 1");
    // Reentrant submission would self-deadlock on submit_mutex_ below (or,
    // from a worker thread, starve the outer task forever). Fail fast with
    // a clear message while the stack still shows the offending fn.
    PGF_DCHECK(tls_running_pool != this,
               "ThreadPool::parallel_for is not reentrant: fn submitted to "
               "the pool that is running it; use a separate (inner) pool "
               "for nested parallelism");
    const std::size_t chunks = (n + chunk - 1) / chunk;
    // Concurrent external callers take turns; each completed invocation
    // leaves outstanding == 0, so the belt-and-braces check below also
    // catches reentrant submissions in unchecked builds — before this
    // thread would deadlock claiming chunks it can never run.
    MutexLock submit_lock(submit_mutex_);
    {
        MutexLock lock(mutex_);
        PGF_CHECK(task_.outstanding == 0,
                  "parallel_for is not reentrant");
        task_.fn = &fn;
        task_.n = n;
        task_.chunk = chunk;
        task_.next = 0;
        task_.outstanding = chunks;
        ++task_.generation;
    }
    work_cv_.notify_all();
    // The calling thread works too.
    {
        RunningPoolScope running(this);
        for (;;) {
            std::size_t begin;
            {
                MutexLock lock(mutex_);
                if (task_.next >= task_.n) break;
                begin = task_.next;
                task_.next += task_.chunk;
            }
            run_chunk(fn, begin, std::min(begin + chunk, n));
        }
    }
    std::exception_ptr error;
    {
        MutexLock lock(mutex_);
        while (task_.outstanding != 0) lock.wait(done_cv_);
        task_.fn = nullptr;
        error = std::exchange(task_.error, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

bool ThreadPool::run_chunk(const Fn& fn, std::size_t begin, std::size_t end) {
    std::exception_ptr error;
    try {
        fn(begin, end);
    } catch (...) {
        error = std::current_exception();
    }
    MutexLock lock(mutex_);
    if (error && !task_.error) {
        task_.error = error;
        // Cancel the chunks nobody has claimed yet; they will never run,
        // so they retire here.
        if (task_.next < task_.n) {
            task_.outstanding -=
                (task_.n - task_.next + task_.chunk - 1) / task_.chunk;
            task_.next = task_.n;
        }
    }
    return --task_.outstanding == 0;
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_generation = 0;
    RunningPoolScope running(this);
    for (;;) {
        const Fn* fn = nullptr;
        std::size_t begin = 0, end = 0;
        {
            MutexLock lock(mutex_);
            while (!(shutdown_ ||
                     (task_.fn != nullptr &&
                      (task_.generation != seen_generation ||
                       task_.next < task_.n)))) {
                lock.wait(work_cv_);
            }
            if (shutdown_) return;
            seen_generation = task_.generation;
            if (task_.fn == nullptr || task_.next >= task_.n) continue;
            fn = task_.fn;
            begin = task_.next;
            task_.next += task_.chunk;
            end = std::min(begin + task_.chunk, task_.n);
        }
        if (run_chunk(*fn, begin, end)) done_cv_.notify_all();
    }
}

}  // namespace pgf

// The parallel sweep engine: fans independent experiment configurations —
// (scheme, M, workload) tuples in the paper's studies — across a ThreadPool
// and gathers results in declaration order.
//
// Determinism contract (relied on by the bench harness, which must emit
// byte-identical tables at any thread count):
//   - every task writes only its own result slot, indexed by declaration
//     order, so the gathered vector never depends on scheduling;
//   - tasks needing randomness use SweepTask::seed, a SplitMix64-derived
//     stream keyed by (base seed, task index) — never a shared Rng;
//   - tasks are scheduled one-per-chunk (ThreadPool::parallel_for_chunk
//     with chunk = 1) because sweep configurations have wildly different
//     costs: a minimax run is O(N^2), a disk-modulo run is O(N).
//
// A runner with no pool (or a 1-thread pool) degrades to a plain ordered
// loop, which is what the determinism tests compare against.
//
// The workbenches the sweep tasks read are built once, before the fan-out,
// and shared read-only across every configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "pgf/util/annotations.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf {

/// Per-task context handed to every sweep function.
struct SweepTask {
    std::size_t index = 0;   ///< declaration index of this configuration
    std::uint64_t seed = 0;  ///< deterministic per-task RNG stream seed
};

/// Derives the RNG stream seed of task `task_index` from `base_seed`
/// (SplitMix64 over the pair, so neighbouring indices get uncorrelated
/// streams).
std::uint64_t sweep_task_seed(std::uint64_t base_seed,
                              std::size_t task_index);

/// Timing record of one sweep (for BENCH_sweep.json and regression
/// tracking).
struct SweepStats {
    std::size_t tasks = 0;
    unsigned threads = 1;  ///< pool parallelism the sweep ran with
    double wall_ms = 0.0;
};

class SweepRunner {
public:
    /// Runs sweeps on `pool`; nullptr means strictly serial execution.
    /// The pool must outlive the runner. `base_seed` keys the per-task
    /// seed streams.
    explicit SweepRunner(ThreadPool* pool = nullptr,
                         std::uint64_t base_seed = 0)
        : pool_(pool), base_seed_(base_seed) {}

    /// Parallelism the runner schedules onto (1 when serial).
    unsigned threads() const {
        return pool_ != nullptr ? pool_->parallelism() : 1u;
    }

    /// Fans `fn(config, task)` over every configuration; the returned
    /// vector holds results in declaration order regardless of which
    /// thread ran which task. Result types must be default-constructible.
    template <typename Config, typename Fn>
    auto map(const std::vector<Config>& configs, Fn&& fn)
        -> std::vector<std::invoke_result_t<Fn&, const Config&,
                                            const SweepTask&>> {
        using Result =
            std::invoke_result_t<Fn&, const Config&, const SweepTask&>;
        std::vector<Result> results(configs.size());
        run_indexed(configs.size(), [&](const SweepTask& task) {
            results[task.index] = fn(configs[task.index], task);
        });
        return results;
    }

    /// Low-level form: runs fn once per index in [0, n), one task per
    /// scheduling unit, blocking until all completed. Records SweepStats.
    void run_indexed(std::size_t n,
                     const std::function<void(const SweepTask&)>& fn);

    /// Stats of the most recent run_indexed/map call (by value: several
    /// external threads may share one runner over a common pool, so the
    /// gathered stats are read under the stats mutex).
    SweepStats last() const {
        MutexLock lock(stats_mutex_);
        return last_;
    }

    /// Wall-clock milliseconds accumulated over every sweep so far.
    double total_wall_ms() const {
        MutexLock lock(stats_mutex_);
        return total_wall_ms_;
    }

private:
    ThreadPool* pool_;
    std::uint64_t base_seed_;
    /// Guards the gather-side stats; the per-task result slots need no
    /// lock (each task writes only its own declaration-indexed slot).
    mutable Mutex stats_mutex_;
    SweepStats last_ PGF_GUARDED_BY(stats_mutex_);
    double total_wall_ms_ PGF_GUARDED_BY(stats_mutex_) = 0.0;
};

}  // namespace pgf

// Real concurrent query serving over a shared PagedGridFile.
//
// Where ParallelGridFileServer (pgf_server.hpp) *simulates* the paper's
// SP-2 cluster through a discrete-event clock, QueryEngine serves queries
// with actual threads against the actual paged file:
//
//   front end(s) --submit()--> on the caller's thread, the paper's
//                              coordinator (node 0): closed-loop window,
//                              directory lookup + per-node block lists
//                              (the lookup scratch under dispatch_mutex_)
//                                    |
//              [per-node task queues] x N
//                 |                |
//            node-0 team  ...  node-(N-1) team: workers_per_node threads,
//            each reading ONLY buckets assigned to its node's disks,
//            through that node's own latched BufferPool (NodeBacking);
//            an idle worker polls its queue for up to kPollBudget before
//            it parks
//                 |                |
//              completion: the last node team to finish a query stamps
//              its latency and wakes the front end.
//
// A node slot that throws (a page failing its checksum, an I/O error, a
// page whose count word exceeds it) fails its query, not the process: the
// query keeps its first error, the slot still counts down, and the query
// completes as failed with no records (the other nodes' matches are
// dropped), while the engine serves on.
//
// Determinism contract: a query's gathered result is its per-node partial
// results concatenated in node order, each partial filtered in block-list
// order — a function of (structure, assignment, query) only, never of
// thread interleaving. The per-query record multisets equal the serial
// PagedGridFile query path, and the per-node block lists equal the DES
// server's (both asserted by tests/parallel/test_query_engine.cpp).
//
// Concurrency invariants:
//   - the grid file is read-only while the engine lives: submit() walks
//     scales/directory (immutable after build) and workers read pages
//     through their node's own pool, never the file's builder pool;
//   - construction requires gf.flush() first so node pools see current
//     page images;
//   - each worker pins at most one page at a time, so a node pool with
//     pool_pages >= workers_per_node can never throw "pool exhausted"
//     (checked in the constructor);
//   - QueryState hand-off is synchronized by the queues' mutexes and the
//     per-query outstanding counter (acq_rel), so slot writes happen-
//     before the completing team reads them, which happens-before the
//     front end observes completion under stats_mutex_.
//
// Lock discipline is machine-checked (pgf/util/annotations.hpp): every
// guarded member is annotated, and scripts/check_locks.sh asserts the
// queue, scratch and stat annotations stay present.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "pgf/decluster/types.hpp"
#include "pgf/gridfile/partial_match.hpp"
#include "pgf/parallel/node_backing.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/annotations.hpp"
#include "pgf/util/bounded_queue.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

/// Sizing of the serving cluster. The assignment targets
/// nodes * disks_per_node disks; disk d lives on node d / disks_per_node
/// (the DES server's convention).
struct ServingConfig {
    std::uint32_t nodes = 4;
    std::uint32_t disks_per_node = 1;
    /// Threads per node team. Parallelism comes from concurrent queries:
    /// one team thread serves one query's blocks on that node.
    unsigned workers_per_node = 1;
    /// Buffer-pool frames per node (must be >= workers_per_node; each
    /// worker pins at most one page at a time).
    std::size_t pool_pages = 1024;
    /// Closed-loop admission window: submit() blocks while this many
    /// queries are in flight — the bench's concurrency knob.
    std::size_t concurrency = 16;
};

/// Aggregate outcome of a served batch (see QueryEngine::run).
struct ServingReport {
    std::size_t queries = 0;
    std::size_t failed = 0;              ///< queries that completed failed
    std::uint64_t total_blocks = 0;      ///< buckets fetched across queries
    std::uint64_t records_returned = 0;
    double wall_s = 0.0;
    double qps = 0.0;                    ///< queries / wall_s
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    /// Per-node pool counters accumulated over the batch (hits/misses
    /// expose the caching behavior the declustering induces per node).
    std::vector<BufferPool::Stats> node_pools;
};

/// Fills the latency aggregates of a ServingReport from per-query
/// latencies (exact order-statistic quantiles); leaves node_pools alone.
void summarize_serving(std::vector<double> latencies_ms, double wall_s,
                       ServingReport& report);

/// Splits a query's bucket list into per-node block lists, exactly as the
/// DES server partitions block requests: buckets are binned per *disk* in
/// list order, and a node's blocks are its disks' bins concatenated in
/// disk order. QueryEngine executes these lists; the DES cross-check test
/// asserts the equality.
std::vector<std::vector<std::uint32_t>> partition_node_blocks(
    const std::vector<std::uint32_t>& buckets, const Assignment& assignment,
    std::uint32_t nodes, std::uint32_t disks_per_node);

template <std::size_t D>
class QueryEngine {
public:
    /// Range or partial-match — the two query classes of the paper.
    using Query = std::variant<Rect<D>, PartialMatch<D>>;
    using Records = std::vector<GridRecord<D>>;
    using Store = typename PagedGridFile<D>::Store;

    /// Everything a batch run hands back: per-query gathered records (in
    /// the deterministic node-major order), per-query errors (null for a
    /// served query; a failed one has no records), per-query latencies,
    /// and the aggregate report.
    struct BatchOutput {
        std::vector<Records> results;
        std::vector<std::exception_ptr> errors;
        std::vector<double> latencies_ms;
        ServingReport report;
    };

    /// `assignment` maps every bucket of `gf` to a disk in
    /// [0, nodes * disks_per_node). `gf` must be flushed and stay
    /// unmodified for the engine's lifetime. Threads start immediately.
    QueryEngine(const PagedGridFile<D>& gf, Assignment assignment,
                ServingConfig config)
        : gf_(gf),
          assignment_(std::move(assignment)),
          config_(config) {
        PGF_CHECK(config_.nodes >= 1, "serving needs at least one node");
        PGF_CHECK(config_.disks_per_node >= 1,
                  "each node needs at least one disk");
        PGF_CHECK(config_.workers_per_node >= 1,
                  "each node team needs at least one worker");
        PGF_CHECK(config_.concurrency >= 1,
                  "admission window needs at least one slot");
        PGF_CHECK(config_.pool_pages >= config_.workers_per_node,
                  "node pool must hold one frame per team worker");
        const std::uint32_t total_disks =
            config_.nodes * config_.disks_per_node;
        PGF_CHECK(assignment_.num_disks == total_disks,
                  "assignment must target exactly the cluster's disks");
        PGF_CHECK(assignment_.disk_of.size() == gf_.bucket_count(),
                  "assignment must cover every bucket");

        backing_.reserve(config_.nodes);
        node_queues_.reserve(config_.nodes);
        for (std::uint32_t n = 0; n < config_.nodes; ++n) {
            backing_.push_back(std::make_unique<NodeBacking>(
                gf_.path(), config_.pool_pages));
            // A query occupies at most one slot per node queue, so the
            // admission window bounds every queue's depth: submit() never
            // blocks pushing node tasks.
            node_queues_.push_back(
                std::make_unique<BoundedMpmcQueue<QueryState*>>(
                    std::max<std::size_t>(config_.concurrency, 1)));
        }
        workers_.reserve(static_cast<std::size_t>(config_.nodes) *
                         config_.workers_per_node);
        for (std::uint32_t n = 0; n < config_.nodes; ++n) {
            for (unsigned w = 0; w < config_.workers_per_node; ++w) {
                workers_.emplace_back([this, n] { worker_loop(n); });
            }
        }
    }

    QueryEngine(const QueryEngine&) = delete;
    QueryEngine& operator=(const QueryEngine&) = delete;

    /// Close-then-drain shutdown: in-flight queries complete, then the
    /// teams exit. Results not yet collected are discarded with the engine.
    ~QueryEngine() {
        for (auto& q : node_queues_) q->close();
        for (auto& w : workers_) w.join();
    }

    const ServingConfig& config() const { return config_; }

    /// Admits one query and dispatches it on the calling thread: blocks
    /// while the closed-loop window is full, then looks the query up and
    /// queues its per-node block lists. Returns the query's ticket (index
    /// into the current batch). A query whose lookup throws (a partial
    /// match with no free attribute) completes with no blocks, giving its
    /// window slot back, and the error propagates to the caller.
    std::size_t submit(Query q) PGF_EXCLUDES(stats_mutex_, dispatch_mutex_) {
        auto state = std::make_unique<QueryState>();
        QueryState* qs = state.get();
        qs->query = std::move(q);
        std::size_t ticket = 0;
        {
            MutexLock lock(stats_mutex_);
            while (submitted_ - completed_ >= config_.concurrency) {
                lock.wait(completion_cv_);
            }
            ticket = submitted_++;
            qs->ticket = ticket;
            states_.push_back(std::move(state));
            latencies_ms_.push_back(0.0);
        }
        qs->admit = Clock::now();
        try {
            translate(*qs);
        } catch (...) {
            complete(qs);
            throw;
        }
        dispatch(qs);
        return ticket;
    }

    std::size_t submit(const Rect<D>& q)
        PGF_EXCLUDES(stats_mutex_, dispatch_mutex_) {
        return submit(Query(q));
    }
    std::size_t submit(const PartialMatch<D>& q)
        PGF_EXCLUDES(stats_mutex_, dispatch_mutex_) {
        return submit(Query(q));
    }

    /// Blocks until every submitted query has completed.
    void drain() PGF_EXCLUDES(stats_mutex_) {
        MutexLock lock(stats_mutex_);
        while (completed_ < submitted_) {
            lock.wait(completion_cv_);
        }
    }

    /// Gathered records of completed query `ticket`, node-major (node 0's
    /// matches first, each node's in block-list order) — deterministic for
    /// a fixed (structure, assignment, query) regardless of thread count.
    /// Empty for a failed query. Call only after drain().
    Records result(std::size_t ticket) const PGF_EXCLUDES(stats_mutex_) {
        const QueryState& qs = finished(ticket);
        Records out;
        std::size_t total = 0;
        for (const Records& part : qs.node_results) total += part.size();
        out.reserve(total);
        for (const Records& part : qs.node_results) {
            out.insert(out.end(), part.begin(), part.end());
        }
        return out;
    }

    /// What failed completed query `ticket`: the first error one of its
    /// node slots threw, or null when it was served. Call only after
    /// drain().
    std::exception_ptr error(std::size_t ticket) const
        PGF_EXCLUDES(stats_mutex_) {
        return finished(ticket).error;
    }

    /// Serves a whole batch closed-loop (window = config.concurrency) and
    /// gathers results, errors, latencies and the aggregate report. Resets
    /// the batch state first; node pools stay warm across run() calls. A
    /// query whose node slot fails is reported in `errors`, and the rest of
    /// the batch is served. If a submit() throws, the queries already
    /// submitted are drained before the error propagates, so the engine can
    /// serve the next batch.
    BatchOutput run(const std::vector<Query>& queries)
        PGF_EXCLUDES(stats_mutex_, dispatch_mutex_) {
        reset_batch();
        BatchOutput out;
        const auto start = Clock::now();
        try {
            for (const Query& q : queries) submit(q);
        } catch (...) {
            drain();
            throw;
        }
        drain();
        const double wall_s =
            std::chrono::duration<double>(Clock::now() - start).count();

        out.results.reserve(queries.size());
        out.errors.reserve(queries.size());
        for (std::size_t t = 0; t < queries.size(); ++t) {
            out.results.push_back(result(t));
            out.errors.push_back(error(t));
        }
        {
            MutexLock lock(stats_mutex_);
            out.latencies_ms = latencies_ms_;
            out.report.queries = completed_;
            out.report.failed = failed_;
            out.report.total_blocks = total_blocks_;
            out.report.records_returned = records_returned_;
        }
        summarize_serving(out.latencies_ms, wall_s, out.report);
        out.report.node_pools.reserve(backing_.size());
        for (auto& nb : backing_) {
            out.report.node_pools.push_back(nb->pool.reset());
        }
        return out;
    }

    /// Node `n`'s buffer pool (tests check that no page stays pinned).
    const BufferPool& node_pool(std::uint32_t n) const {
        return backing_[n]->pool;
    }

    /// Reopens every node's pool empty (cold-start measurements).
    /// Call only while no queries are in flight.
    void drop_caches() PGF_EXCLUDES(stats_mutex_) {
        {
            MutexLock lock(stats_mutex_);
            PGF_CHECK(completed_ == submitted_,
                      "drop_caches with queries in flight");
        }
        for (auto& nb : backing_) {
            nb = std::make_unique<NodeBacking>(gf_.path(),
                                               config_.pool_pages);
        }
    }

private:
    using Clock = std::chrono::steady_clock;

    /// Idle time a worker spends polling its queue before it parks in
    /// pop(): waking a parked worker costs far more than most node slots
    /// take to serve (DESIGN.md §4g).
    static constexpr std::chrono::microseconds kPollBudget{50};

    /// Per-query in-flight state. Written by submit() (block lists), then
    /// by node teams (each exclusively its own result slot; `error` only by
    /// the slot that sets `failed` first); the outstanding counter's
    /// acq_rel ordering publishes the slots to the completing team and,
    /// through stats_mutex_, to the front end.
    struct QueryState {
        std::size_t ticket = 0;
        Query query;
        Clock::time_point admit{};
        std::size_t blocks = 0;
        std::vector<std::vector<std::uint32_t>> node_blocks;
        std::vector<Records> node_results;
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::atomic<std::uint32_t> outstanding{0};
    };

    /// Completed query `ticket`'s state (requires a drained engine).
    const QueryState& finished(std::size_t ticket) const
        PGF_EXCLUDES(stats_mutex_) {
        MutexLock lock(stats_mutex_);
        PGF_CHECK(ticket < states_.size(), "unknown ticket");
        PGF_CHECK(completed_ == submitted_,
                  "result() and error() require a drained engine");
        return *states_[ticket];
    }

    /// Coordinator role (the paper's node 0): translates the query against
    /// the in-memory scales/directory and partitions its block list per
    /// node. Concurrent submitters take turns on the shared scratch.
    void translate(QueryState& qs) PGF_EXCLUDES(dispatch_mutex_) {
        MutexLock lock(dispatch_mutex_);
        std::visit(
            [&](const auto& q) { gf_.query_buckets(q, scratch_, buckets_); },
            qs.query);
        qs.node_blocks = partition_node_blocks(
            buckets_, assignment_, config_.nodes, config_.disks_per_node);
        qs.blocks = buckets_.size();
    }

    /// Fans a translated query out to the node queues its blocks live on.
    void dispatch(QueryState* qs) PGF_EXCLUDES(stats_mutex_) {
        qs->node_results.resize(config_.nodes);
        std::uint32_t fanout = 0;
        for (const auto& blocks : qs->node_blocks) {
            fanout += blocks.empty() ? 0u : 1u;
        }
        if (fanout == 0) {
            complete(qs);  // query missed the domain entirely
            return;
        }
        // The counter must cover the full fanout before the first push —
        // a team could finish its slot instantly.
        qs->outstanding.store(fanout, std::memory_order_relaxed);
        for (std::uint32_t n = 0; n < config_.nodes; ++n) {
            if (qs->node_blocks[n].empty()) continue;
            PGF_CHECK(node_queues_[n]->push(qs),
                      "submit on a shut-down engine");
        }
    }

    /// Node team member: serves one query's block list on `node`, reading
    /// every bucket page through the node's own pool and filtering records
    /// into the query's slot for this node. The first error a slot of the
    /// query throws becomes the query's.
    void worker_loop(std::uint32_t node) {
        BoundedMpmcQueue<QueryState*>& queue = *node_queues_[node];
        Records page_buf;
        QueryState* qs = nullptr;
        while (next_task(queue, qs)) {
            // Re-fetched per task: drop_caches() swaps the backing while
            // the team is idle (polling or parked in next_task above).
            BufferPool& pool = backing_[node]->pool;
            const std::vector<std::uint32_t>& blocks = qs->node_blocks[node];
            Records& out = qs->node_results[node];
            try {
                for (std::uint32_t b : blocks) {
                    auto ref = pool.fetch(gf_.bucket_page(b));
                    Store::decode_page(ref.data(), page_buf);
                    filter(qs->query, page_buf, out);
                }
            } catch (...) {
                if (!qs->failed.exchange(true, std::memory_order_relaxed)) {
                    qs->error = std::current_exception();
                }
            }
            if (qs->outstanding.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                complete(qs);
            }
        }
    }

    /// Takes the node's next task; false once the queue is closed and
    /// drained. The worker tries the queue for up to kPollBudget, yielding
    /// its CPU between tries, before it parks in pop().
    static bool next_task(BoundedMpmcQueue<QueryState*>& queue,
                          QueryState*& qs) {
        const auto deadline = Clock::now() + kPollBudget;
        do {
            if (queue.try_pop(qs)) return true;
            std::this_thread::yield();
        } while (Clock::now() < deadline);
        return queue.pop(qs);
    }

    /// Completion path: drops a failed query's records, stamps its latency
    /// and publishes it to the front end (submit's window wait and drain
    /// share the condvar).
    void complete(QueryState* qs) PGF_EXCLUDES(stats_mutex_) {
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      qs->admit)
                .count();
        if (qs->error != nullptr) {
            for (Records& part : qs->node_results) part.clear();
        }
        std::uint64_t matched = 0;
        for (const Records& part : qs->node_results) matched += part.size();
        {
            MutexLock lock(stats_mutex_);
            latencies_ms_[qs->ticket] = ms;
            total_blocks_ += qs->blocks;
            records_returned_ += matched;
            if (qs->error != nullptr) ++failed_;
            ++completed_;
        }
        completion_cv_.notify_all();
    }

    static void filter(const Query& query, const Records& page, Records& out) {
        std::visit(
            [&](const auto& q) {
                for (const GridRecord<D>& r : page) {
                    if (q.contains(r.point)) out.push_back(r);
                }
            },
            query);
    }

    /// Clears the previous batch's state. Requires a drained engine.
    void reset_batch() PGF_EXCLUDES(stats_mutex_) {
        MutexLock lock(stats_mutex_);
        PGF_CHECK(completed_ == submitted_,
                  "reset with queries in flight");
        states_.clear();
        latencies_ms_.clear();
        submitted_ = 0;
        completed_ = 0;
        failed_ = 0;
        total_blocks_ = 0;
        records_returned_ = 0;
    }

    const PagedGridFile<D>& gf_;
    const Assignment assignment_;
    const ServingConfig config_;

    std::vector<std::unique_ptr<BoundedMpmcQueue<QueryState*>>> node_queues_;
    std::vector<std::unique_ptr<NodeBacking>> backing_;
    std::vector<std::thread> workers_;

    Mutex dispatch_mutex_;
    QueryScratch scratch_ PGF_GUARDED_BY(dispatch_mutex_);
    std::vector<std::uint32_t> buckets_ PGF_GUARDED_BY(dispatch_mutex_);

    mutable Mutex stats_mutex_;
    std::condition_variable completion_cv_;
    std::vector<std::unique_ptr<QueryState>> states_
        PGF_GUARDED_BY(stats_mutex_);
    std::vector<double> latencies_ms_ PGF_GUARDED_BY(stats_mutex_);
    std::size_t submitted_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::size_t completed_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::size_t failed_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t total_blocks_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t records_returned_ PGF_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace pgf

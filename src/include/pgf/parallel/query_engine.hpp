// Real concurrent query serving over a shared PagedGridFile.
//
// Where ParallelGridFileServer (pgf_server.hpp) *simulates* the paper's
// SP-2 cluster through a discrete-event clock, QueryEngine serves queries
// with actual threads against the actual paged file:
//
//   front end --submit()--> [bounded MPMC admission queue]
//                               |
//                          dispatcher (the paper's coordinator, node 0):
//                          directory lookup + per-node block lists
//                               |
//              [per-node task queues] x N
//                 |                |
//            node-0 team  ...  node-(N-1) team: workers_per_node threads,
//            each reading ONLY buckets assigned to its node's disks,
//            through that node's own latched BufferPool (NodeBacking)
//                 |                |
//              completion: the last node team to finish a query stamps
//              its latency and wakes the front end.
//
// Determinism contract: a query's gathered result is its per-node partial
// results concatenated in node order, each partial filtered in block-list
// order — a function of (structure, assignment, query) only, never of
// thread interleaving. The per-query record multisets equal the serial
// PagedGridFile query path, and the per-node block lists equal the DES
// server's (both asserted by tests/parallel/test_query_engine.cpp).
//
// Concurrency invariants:
//   - the grid file is read-only while the engine lives: the dispatcher
//     walks scales/directory (immutable after build) and workers read
//     pages through their node's own pool, never the file's builder pool;
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
// queue and stat annotations stay present.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
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
    /// the deterministic node-major order), per-query latencies, and the
    /// aggregate report.
    struct BatchOutput {
        std::vector<Records> results;
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
          config_(config),
          admission_(std::max<std::size_t>(config.concurrency, 1)) {
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
            // admission window bounds every queue's depth: the dispatcher
            // can never deadlock pushing node tasks.
            node_queues_.push_back(
                std::make_unique<BoundedMpmcQueue<QueryState*>>(
                    std::max<std::size_t>(config_.concurrency, 1)));
        }
        dispatcher_ = std::thread([this] { dispatch_loop(); });
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
        admission_.close();
        if (dispatcher_.joinable()) dispatcher_.join();
        for (auto& q : node_queues_) q->close();
        for (auto& w : workers_) w.join();
    }

    const ServingConfig& config() const { return config_; }

    /// Admits one query; blocks while the closed-loop window is full.
    /// Returns the query's ticket (index into the current batch).
    std::size_t submit(Query q) PGF_EXCLUDES(stats_mutex_) {
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
        PGF_CHECK(admission_.push(qs), "submit on a shut-down engine");
        return ticket;
    }

    std::size_t submit(const Rect<D>& q) PGF_EXCLUDES(stats_mutex_) {
        return submit(Query(q));
    }
    std::size_t submit(const PartialMatch<D>& q) PGF_EXCLUDES(stats_mutex_) {
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
    /// Call only after drain().
    Records result(std::size_t ticket) const PGF_EXCLUDES(stats_mutex_) {
        const QueryState* qs = nullptr;
        {
            MutexLock lock(stats_mutex_);
            PGF_CHECK(ticket < states_.size(), "unknown ticket");
            PGF_CHECK(completed_ == submitted_,
                      "result() requires a drained engine");
            qs = states_[ticket].get();
        }
        Records out;
        std::size_t total = 0;
        for (const Records& part : qs->node_results) total += part.size();
        out.reserve(total);
        for (const Records& part : qs->node_results) {
            out.insert(out.end(), part.begin(), part.end());
        }
        return out;
    }

    /// Serves a whole batch closed-loop (window = config.concurrency) and
    /// gathers results, latencies and the aggregate report. Resets the
    /// batch state first; node pools stay warm across run() calls.
    BatchOutput run(const std::vector<Query>& queries)
        PGF_EXCLUDES(stats_mutex_) {
        reset_batch();
        BatchOutput out;
        const auto start = Clock::now();
        for (const Query& q : queries) submit(q);
        drain();
        const double wall_s =
            std::chrono::duration<double>(Clock::now() - start).count();

        out.results.reserve(queries.size());
        for (std::size_t t = 0; t < queries.size(); ++t) {
            out.results.push_back(result(t));
        }
        {
            MutexLock lock(stats_mutex_);
            out.latencies_ms = latencies_ms_;
            out.report.queries = completed_;
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

    /// Per-query in-flight state. Written by the dispatcher (block lists),
    /// then by node teams (each exclusively its own slot); the outstanding
    /// counter's acq_rel ordering publishes the slots to the completing
    /// team and, through stats_mutex_, to the front end.
    struct QueryState {
        std::size_t ticket = 0;
        Query query;
        Clock::time_point admit{};
        std::size_t blocks = 0;
        std::vector<std::vector<std::uint32_t>> node_blocks;
        std::vector<Records> node_results;
        std::atomic<std::uint32_t> outstanding{0};
    };

    /// Coordinator role (the paper's node 0): pops admitted queries,
    /// translates them against the in-memory scales/directory, partitions
    /// the block list per node and fans tasks out to the team queues.
    void dispatch_loop() {
        QueryScratch scratch;
        std::vector<std::uint32_t> buckets;
        QueryState* qs = nullptr;
        while (admission_.pop(qs)) {
            std::visit(
                [&](const auto& q) {
                    gf_.query_buckets(q, scratch, buckets);
                },
                qs->query);
            qs->blocks = buckets.size();
            qs->node_blocks = partition_node_blocks(
                buckets, assignment_, config_.nodes, config_.disks_per_node);
            qs->node_results.resize(config_.nodes);
            std::uint32_t fanout = 0;
            for (const auto& blocks : qs->node_blocks) {
                fanout += blocks.empty() ? 0u : 1u;
            }
            if (fanout == 0) {
                complete(qs);  // query missed the domain entirely
                continue;
            }
            // The counter must cover the full fanout before the first
            // push — a team could finish its slot instantly.
            qs->outstanding.store(fanout, std::memory_order_relaxed);
            for (std::uint32_t n = 0; n < config_.nodes; ++n) {
                if (qs->node_blocks[n].empty()) continue;
                PGF_CHECK(node_queues_[n]->push(qs),
                          "node queue closed while dispatching");
            }
        }
    }

    /// Node team member: serves one query's block list on `node`, reading
    /// every bucket page through the node's own pool and filtering records
    /// into the query's slot for this node.
    void worker_loop(std::uint32_t node) {
        Records page_buf;
        QueryState* qs = nullptr;
        while (node_queues_[node]->pop(qs)) {
            // Re-fetched per task: drop_caches() swaps the backing while
            // the team is quiescent (blocked in pop above).
            BufferPool& pool = backing_[node]->pool;
            const std::vector<std::uint32_t>& blocks = qs->node_blocks[node];
            Records& out = qs->node_results[node];
            for (std::uint32_t b : blocks) {
                auto ref = pool.fetch(gf_.bucket_page(b));
                Store::decode_page(ref.data(), page_buf);
                filter(qs->query, page_buf, out);
            }
            if (qs->outstanding.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                complete(qs);
            }
        }
    }

    /// Completion path: stamps the query's latency and publishes it to the
    /// front end (submit's window wait and drain share the condvar).
    void complete(QueryState* qs) PGF_EXCLUDES(stats_mutex_) {
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      qs->admit)
                .count();
        std::uint64_t matched = 0;
        for (const Records& part : qs->node_results) matched += part.size();
        {
            MutexLock lock(stats_mutex_);
            latencies_ms_[qs->ticket] = ms;
            total_blocks_ += qs->blocks;
            records_returned_ += matched;
            ++completed_;
        }
        completion_cv_.notify_all();
    }

    static void filter(const Query& query, const Records& page, Records& out) {
        if (const Rect<D>* rect = std::get_if<Rect<D>>(&query)) {
            for (const GridRecord<D>& r : page) {
                if (rect->contains(r.point)) out.push_back(r);
            }
            return;
        }
        const PartialMatch<D>& pm = std::get<PartialMatch<D>>(query);
        for (const GridRecord<D>& r : page) {
            bool match = true;
            for (std::size_t i = 0; i < D && match; ++i) {
                if (pm.key[i].has_value() && r.point[i] != *pm.key[i]) {
                    match = false;
                }
            }
            if (match) out.push_back(r);
        }
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
        total_blocks_ = 0;
        records_returned_ = 0;
    }

    const PagedGridFile<D>& gf_;
    const Assignment assignment_;
    const ServingConfig config_;

    BoundedMpmcQueue<QueryState*> admission_;
    std::vector<std::unique_ptr<BoundedMpmcQueue<QueryState*>>> node_queues_;
    std::vector<std::unique_ptr<NodeBacking>> backing_;
    std::thread dispatcher_;
    std::vector<std::thread> workers_;

    mutable Mutex stats_mutex_;
    std::condition_variable completion_cv_;
    std::vector<std::unique_ptr<QueryState>> states_
        PGF_GUARDED_BY(stats_mutex_);
    std::vector<double> latencies_ms_ PGF_GUARDED_BY(stats_mutex_);
    std::size_t submitted_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::size_t completed_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t total_blocks_ PGF_GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t records_returned_ PGF_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace pgf

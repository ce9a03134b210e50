// SPMD parallel grid-file server on the simulated shared-nothing cluster.
//
// Execution model, following the paper: the coordinator (node 0, also a
// worker) translates each arriving query into block requests, ships each
// worker the list of its blocks in one message, the workers read the blocks
// from their local disks (LRU-cached), filter the qualifying records, and
// ship them back; the query completes when the last response arrives, and
// queries are processed one at a time (the workloads in Tables 4-5 are
// sequential query streams).
//
// The server reads the in-memory GridFile: its structure (query_buckets)
// and each bucket's records. Block residency is decided by each
// SimulatedDisk's internal LRU model. Real page I/O through per-node
// buffer pools is QueryEngine's job (query_engine.hpp); response blocks
// depend only on structure + assignment, so they agree with it by
// construction.
//
// Reported quantities match the paper's three columns:
//   - response blocks: sum over queries of max_i N_i(q) (Sec. 2.2 metric),
//   - communication seconds: total time spent in message transfer,
//   - elapsed seconds: simulated completion time of the whole batch.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "pgf/decluster/types.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/parallel/cluster.hpp"
#include "pgf/sim/des.hpp"

namespace pgf {

struct BatchResult {
    std::size_t queries = 0;
    std::uint64_t response_blocks = 0;  ///< sum of per-query max_i N_i(q)
    std::uint64_t total_blocks = 0;     ///< sum of per-query buckets touched
    std::uint64_t records_returned = 0;
    std::uint64_t physical_reads = 0;
    std::uint64_t cache_hits = 0;
    double comm_time_s = 0.0;
    double elapsed_s = 0.0;
};

template <std::size_t D>
class ParallelGridFileServer {
public:
    /// `assignment` maps every bucket of `gf` to a *disk* in
    /// [0, nodes * disks_per_node); disk d lives on node d / disks_per_node.
    ParallelGridFileServer(const GridFile<D>& gf, Assignment assignment,
                           ClusterConfig config)
        : gf_(gf), assignment_(std::move(assignment)), config_(config) {
        PGF_CHECK(config_.disks_per_node >= 1,
                  "each node needs at least one disk");
        const std::uint32_t total_disks =
            config_.nodes * config_.disks_per_node;
        PGF_CHECK(assignment_.num_disks == total_disks,
                  "assignment must target exactly the cluster's disks");
        PGF_CHECK(assignment_.disk_of.size() == gf_.bucket_count(),
                  "assignment must cover every bucket");
        disks_.reserve(total_disks);
        for (std::uint32_t i = 0; i < total_disks; ++i) {
            disks_.emplace_back(config_.disk);
        }
    }

    /// Runs the query batch on a fresh simulated clock (the simulated
    /// block caches persist across queries within the batch, and across
    /// batches unless drop_caches() is called).
    ///
    /// `concurrency` is the number of outstanding queries the coordinator
    /// keeps in flight (closed loop). The paper's workloads are sequential
    /// (concurrency = 1, the default); higher values overlap independent
    /// queries, serializing contended disks through per-disk busy times.
    BatchResult execute(const std::vector<Rect<D>>& queries,
                        std::uint32_t concurrency = 1) {
        PGF_CHECK(concurrency >= 1, "need at least one query in flight");
        sim::Simulator des;
        Network net(config_.network);
        BatchResult result;
        result.queries = queries.size();
        std::vector<sim::SimTime> disk_busy_until(disks_.size(), 0.0);

        std::size_t next_query = 0;
        // Closed loop: each completed query launches the next.
        std::function<void()> start_query = [&]() {
            if (next_query == queries.size()) return;
            const Rect<D>& q = queries[next_query++];
            const std::vector<std::uint32_t> buckets = gf_.query_buckets(q);

            // Coordinator work: directory lookup + request building.
            double translate =
                config_.query_translate_s +
                config_.per_request_s * static_cast<double>(buckets.size());

            // Partition block requests by owning disk; the response-time
            // metric (max_i N_i) is per disk, exactly as in Sec. 2.2.
            const std::uint32_t total_disks =
                config_.nodes * config_.disks_per_node;
            std::vector<std::vector<std::uint32_t>> per_disk(total_disks);
            for (std::uint32_t b : buckets) {
                per_disk[assignment_.disk_of[b]].push_back(b);
            }
            std::uint64_t worst = 0;
            for (const auto& blocks : per_disk) {
                worst = std::max<std::uint64_t>(worst, blocks.size());
            }
            result.response_blocks += worst;
            result.total_blocks += buckets.size();

            auto outstanding = std::make_shared<std::uint32_t>(0);
            for (std::uint32_t node = 0; node < config_.nodes; ++node) {
                std::size_t node_blocks = 0;
                for (std::uint32_t k = 0; k < config_.disks_per_node; ++k) {
                    node_blocks +=
                        per_disk[node * config_.disks_per_node + k].size();
                }
                if (node_blocks == 0) continue;
                ++*outstanding;
                const bool remote = node != 0;
                double request_time = net.transfer_time(
                    config_.request_bytes * node_blocks, remote);
                result.comm_time_s += request_time;
                // Worker service: the node's disks run in parallel, each
                // serializing its own block reads behind whatever earlier
                // in-flight queries left on its queue; the record filter
                // runs as the blocks arrive.
                const sim::SimTime arrival =
                    des.now() + translate + request_time;
                sim::SimTime node_done = arrival;
                std::uint64_t matched = 0;
                for (std::uint32_t k = 0; k < config_.disks_per_node; ++k) {
                    std::uint32_t disk = node * config_.disks_per_node + k;
                    if (per_disk[disk].empty()) continue;
                    sim::SimTime disk_done =
                        std::max(arrival, disk_busy_until[disk]);
                    for (std::uint32_t b : per_disk[disk]) {
                        disk_done += service_block(q, disk, b, matched);
                    }
                    disk_busy_until[disk] = disk_done;
                    node_done = std::max(node_done, disk_done);
                }
                result.records_returned += matched;
                double response_time = net.transfer_time(
                    static_cast<std::size_t>(matched) * config_.record_bytes,
                    remote);
                result.comm_time_s += response_time;
                des.schedule_at(node_done + response_time,
                                [&, outstanding]() {
                                    if (--*outstanding == 0) start_query();
                                });
            }
            if (*outstanding == 0) {
                // Query touched nothing: move on immediately.
                des.schedule_in(translate, [&]() { start_query(); });
            }
        };

        for (std::uint32_t k = 0; k < concurrency; ++k) start_query();
        des.run();
        result.elapsed_s = des.now();
        for (auto& d : disks_) {
            result.physical_reads += d.physical_reads();
            result.cache_hits += d.cache_hits();
            d.reset_counters();
        }
        return result;
    }

    /// Clears every node's block cache (for cold-start measurements).
    void drop_caches() {
        for (auto& d : disks_) d.drop_cache();
    }

    const ClusterConfig& config() const { return config_; }

private:
    /// Reads bucket `b`'s block on `disk` and filters its records against
    /// `q` (adding to `matched`); returns the block's service time. The
    /// simulated LRU decides residency and the backend's records are
    /// scanned directly.
    sim::SimTime service_block(const Rect<D>& q, std::uint32_t disk,
                               std::uint32_t b, std::uint64_t& matched) {
        for (const auto& rec : gf_.bucket_records(b)) {
            if (q.contains(rec.point)) ++matched;
        }
        return disks_[disk].read(b);
    }

    const GridFile<D>& gf_;
    Assignment assignment_;
    ClusterConfig config_;
    std::vector<SimulatedDisk> disks_;
};

}  // namespace pgf

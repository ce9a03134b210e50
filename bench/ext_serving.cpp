// Extension experiment — real concurrent query serving on the paged
// backend.
//
// Where ext_concurrency overlaps queries inside the discrete-event
// *simulation*, this bench drives the threaded pgf::QueryEngine against
// the actual disk-backed grid file: per-node worker teams read bucket
// pages through their node's own latched BufferPool, and the front end
// keeps a closed-loop window of queries in flight. The sweep is worker
// threads per node x admission concurrency x declustering method on the
// 4-d DSMC workload; the headline numbers are wall-clock queries/sec and
// p50/p95/p99 latency — the simulated result (good declusterings widen
// their lead as concurrency grows) replayed with real threads.
//
// Correctness anchor, asserted on every configuration: the engine's
// per-query record multisets must equal the serial PagedGridFile query
// path (any mismatch aborts the run with exit code 1).
//
// --bench-json <file> writes a pgf-bench-v2 report with one cell per
// "<method>/w=<workers>/c=<concurrency>": throughput, latency and the
// summed node-pool counters.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

#include "pgf/parallel/query_engine.hpp"

namespace pgf::bench {
namespace {

/// Short method tag for config names in the JSON artifact.
std::string method_tag(Method m) {
    switch (m) {
        case Method::kDiskModulo: return "dm";
        case Method::kHilbert: return "hcam";
        case Method::kMinimax: return "minimax";
        default: return to_string(m);
    }
}

/// Records sorted by id — the order-insensitive form both paths must
/// agree on (record ids are unique per workbench build).
template <std::size_t D>
std::vector<GridRecord<D>> sorted_by_id(std::vector<GridRecord<D>> records) {
    std::sort(records.begin(), records.end(),
              [](const GridRecord<D>& a, const GridRecord<D>& b) {
                  return a.id < b.id;
              });
    return records;
}

template <std::size_t D>
bool same_records(const std::vector<GridRecord<D>>& a,
                  const std::vector<GridRecord<D>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].point != b[i].point) return false;
    }
    return true;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    // The engine serves the *disk* image: force the paged workbench
    // regardless of --backend (the in-memory file has no pages to read).
    Options paged_opt = opt;
    paged_opt.backend = "paged";

    constexpr std::uint32_t kNodes = 4;
    print_banner(opt, "Extension — threaded serving on the paged backend",
                 "4-d DSMC data, " + std::to_string(kNodes) +
                     "-node QueryEngine; queries/sec and p50/p99 latency "
                     "vs workers-per-node x concurrency x declustering");
    Rng rng(opt.seed);
    auto wb = cached_workbench<4>(paged_opt, "dsmc.4d/s=12/p=15000",
                                  12 * 15000, rng, [](Rng& r) {
                                      return make_dsmc4d(r, 12, 15000);
                                  });
    const Workbench<4>& bench = *wb;
    PGF_CHECK(bench.paged != nullptr, "serving bench needs the paged build");
    const PagedGridFile<4>& pgf4 = *bench.paged;
    std::cout << bench.summary() << "\n";

    Rng qrng(opt.seed + 14000);
    auto queries = square_queries(bench.dataset.domain, 0.01, opt.queries,
                                  qrng);

    // Serial reference (the correctness anchor): the single-threaded
    // PagedGridFile query path, sorted by record id. Method-independent,
    // so computed once for the whole sweep.
    std::vector<std::vector<GridRecord<4>>> reference;
    reference.reserve(queries.size());
    {
        QueryScratch scratch;
        std::vector<GridRecord<4>> out;
        for (const Rect<4>& q : queries) {
            pgf4.query_records(q, scratch, out);
            reference.push_back(sorted_by_id(out));
        }
    }

    const std::vector<Method> methods{Method::kDiskModulo, Method::kHilbert,
                                      Method::kMinimax};
    const std::vector<unsigned> worker_sweep{1, 2, 4, 8};
    const std::vector<std::size_t> concurrency_sweep{1, 4, 16};

    std::vector<QueryEngine<4>::Query> engine_queries(queries.begin(),
                                                      queries.end());
    BenchReport report("ext_serving", opt.seed);
    report.param("queries", static_cast<double>(opt.queries));
    report.param("nodes", kNodes);
    report.param("pool_pages", static_cast<double>(opt.node_pool_pages));
    bool all_verified = true;

    for (Method method : methods) {
        Assignment a =
            decluster(bench.gs, method, kNodes, {.seed = opt.seed + 53});
        TextTable table({"workers", "concurrency", "qps", "p50 ms", "p95 ms",
                         "p99 ms", "mean ms", "hit rate", "verified"});
        LatencyHistogram method_hist;  // all measured cells of this method
        for (unsigned workers : worker_sweep) {
            ServingConfig cfg;
            cfg.nodes = kNodes;
            cfg.workers_per_node = workers;
            cfg.pool_pages = opt.node_pool_pages;
            for (std::size_t conc : concurrency_sweep) {
                cfg.concurrency = conc;
                QueryEngine<4> engine(pgf4, a, cfg);
                // Warmup pass populates the node pools (and is itself the
                // verified pass); the second pass is the measured one,
                // mirroring the DES bench's warm-cache batches.
                auto warm = engine.run(engine_queries);
                bool verified = warm.results.size() == reference.size();
                for (std::size_t i = 0; verified && i < reference.size();
                     ++i) {
                    verified = same_records(
                        sorted_by_id(std::move(warm.results[i])),
                        reference[i]);
                }
                all_verified = all_verified && verified;
                auto out = engine.run(engine_queries);
                method_hist.record_all(out.latencies_ms);
                BufferPool::Stats pools;
                for (const BufferPool::Stats& s : out.report.node_pools) {
                    pools.hits += s.hits;
                    pools.misses += s.misses;
                    pools.evictions += s.evictions;
                    pools.writebacks += s.writebacks;
                }
                const std::string cell = method_tag(method) + "/w=" +
                                         std::to_string(workers) + "/c=" +
                                         std::to_string(conc);
                report.serving(cell, out.report);
                report.pool(cell, pools);
                table.add(workers, conc, format_double(out.report.qps),
                          format_double(out.report.p50_ms, 3),
                          format_double(out.report.p95_ms, 3),
                          format_double(out.report.p99_ms, 3),
                          format_double(out.report.mean_ms, 3),
                          format_double(pools.hit_rate()),
                          verified ? "yes" : "NO");
            }
        }
        emit(opt, table, "ext_serving_" + method_tag(method));
        std::cout << "  " << to_string(method) << " across all "
                  << method_hist.count() << " measured queries: p50 "
                  << format_double(method_hist.p50(), 3) << " ms, p95 "
                  << format_double(method_hist.p95(), 3) << " ms, p99 "
                  << format_double(method_hist.p99(), 3) << " ms, max "
                  << format_double(method_hist.max(), 3) << " ms\n";
    }

    if (!opt.bench_json.empty()) report.write(opt.bench_json);
    if (!all_verified) {
        std::cerr << "ext_serving: engine results DIVERGED from the serial "
                     "query path\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// serve_hot / serve_cold: threaded range-query serving of dsmc.4d through
// QueryEngine over a MiniMax-declustered PagedGridFile (4 nodes, one disk
// and one worker each).
//
//   serve_hot   1024-frame node pools (every page resident after warm-up),
//               uniform square queries at ratio 0.01, window of 8.
//   serve_cold  64-frame node pools (about 1/6 of a node's pages), square
//               queries centred on data points, window of 4.
//
// End-to-end: closed-loop qps (median over batches) and per-query latency
// of the engine over a fixed cycle of queries, served in batches until
// --seconds of serving time have accumulated; the restart time is the
// median of five cold engines answering their first 1000 queries. Every
// served result is checked against the serial PagedGridFile::query_records
// reference (as a record multiset).
//
// Traced: the same queries replayed serially through the public layer
// functions (query_buckets, partition_node_blocks, BufferPool::fetch on
// per-node pools sized like the engine's, decode_page, the filter loop),
// with a span around each call.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/decluster/registry.hpp"
#include "pgf/disksim/metrics.hpp"
#include "pgf/parallel/node_backing.hpp"
#include "pgf/parallel/query_engine.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgfbench {
namespace {

constexpr std::size_t D = 4;
constexpr std::uint32_t kNodes = 4;
constexpr double kRatio = 0.01;
// dsmc.4d stands in for one real simulation dataset (the paper's DSMC
// snapshots), so it is the same file in every run: its generator and the
// MiniMax tie-breaking use this fixed seed. --seed drives the query stream.
constexpr std::uint64_t kDatasetSeed = 1;
using File = pgf::PagedGridFile<D>;
using Engine = pgf::QueryEngine<D>;
using Records = std::vector<pgf::GridRecord<D>>;
using Store = pgf::PagedBucketStore<D>;

struct Sizes {
    std::size_t snapshots;
    std::size_t per_snapshot;
    std::size_t queries;  ///< distinct queries, served in a cycle; 8000
                          ///< keeps the p99 tail (the largest 1%) from
                          ///< resting on a few queries
    std::size_t batch;    ///< queries per QueryEngine::run call
    std::size_t restart;  ///< queries served cold after a restart
    std::size_t replay;   ///< queries replayed serially when traced
};

Sizes sizes_for(const Options& opt) {
    if (opt.smoke) return {2, 3000, 200, 50, 100, 100};
    return {12, 15000, 8000, 500, 1000, 2000};
}

/// The set-up product: dataset, flushed paged file, assignment.
struct Served {
    pgf::Dataset<D> ds;
    OwnedFile<File> file;
    pgf::Assignment assignment;
};

std::vector<pgf::Rect<D>> make_queries(const pgf::Dataset<D>& ds, bool hot,
                                       std::size_t count, std::uint64_t seed) {
    pgf::Rng rng(seed + 14000);
    if (hot) return pgf::square_queries(ds.domain, kRatio, count, rng);
    // Squares centred on data points: reuse follows data density.
    const double side = pgf::query_side_fraction(kRatio, D);
    std::vector<pgf::Rect<D>> out(count);
    for (pgf::Rect<D>& q : out) {
        const auto& c = ds.points[rng.below(
            static_cast<std::uint32_t>(ds.points.size()))];
        for (std::size_t i = 0; i < D; ++i) {
            const double half = 0.5 * side * ds.domain.extent(i);
            q.lo[i] = c[i] - half;
            q.hi[i] = c[i] + half;
        }
    }
    return out;
}

/// Checks a served batch (results of queries [offset, offset + n) of the
/// cycle) against the reference fingerprints.
void verify_batch(Report& report, Engine::BatchOutput& out,
                  const std::vector<Fingerprint>& refs, std::size_t offset,
                  bool corrupt) {
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        Records& r = out.results[i];
        if (corrupt && i == 0) {
            if (r.empty()) {
                r.push_back({});
            } else {
                r.back().id ^= 1;
            }
        }
        report.check(fingerprint(r) == refs[offset + i],
                     "served query " + std::to_string(offset + i) +
                         " differs from the serial reference");
    }
}

/// What one serial replay pass measured.
struct Replay {
    double wall_s = 0.0;
    std::vector<double> max_node_s;   ///< per query: slowest node service
    std::vector<double> imbalance;    ///< per query: max / mean node service
    std::uint64_t decoded = 0;
    std::uint64_t returned = 0;
};

/// Replays queries [0, n) serially through the layers' public functions,
/// one span per call when `tracer` is enabled.
Replay replay(Tracer& tracer, const File& file, const pgf::Assignment& a,
              const std::vector<pgf::Rect<D>>& queries, std::size_t n,
              std::vector<std::unique_ptr<pgf::NodeBacking>>& nodes,
              const std::vector<Fingerprint>& refs, Report& report) {
    Replay out;
    pgf::QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    std::vector<std::vector<std::uint32_t>> node_blocks;
    std::vector<Records> parts(kNodes);
    std::vector<double> node_s(kNodes);
    Records page;
    Records gathered;
    const auto t0 = Clock::now();
    for (std::size_t qi = 0; qi < n; ++qi) {
        const pgf::Rect<D>& q = queries[qi];
        {
            Scope query(tracer, "bench.query", qi);
            {
                Scope s(tracer, "gridfile.query_buckets", qi);
                file.query_buckets(q, scratch, buckets);
            }
            {
                Scope s(tracer, "parallel.partition_node_blocks", qi);
                node_blocks =
                    pgf::partition_node_blocks(buckets, a, kNodes, 1);
            }
            for (std::uint32_t node = 0; node < kNodes; ++node) {
                parts[node].clear();
                node_s[node] = 0.0;
                if (node_blocks[node].empty()) continue;
                pgf::BufferPool& pool = nodes[node]->pool;
                std::int32_t span = -1;
                {
                    Scope service(tracer, "bench.node_service", qi);
                    span = service.index();
                    for (std::uint32_t b : node_blocks[node]) {
                        std::optional<pgf::BufferPool::PageRef> ref;
                        {
                            Scope s(tracer, "storage.pool.fetch", qi);
                            const std::uint64_t misses = pool.misses();
                            ref.emplace(pool.fetch(file.bucket_page(b)));
                            s.rename(pool.misses() != misses
                                         ? "storage.pool.fetch_miss"
                                         : "storage.pool.fetch_hit");
                        }
                        {
                            Scope s(tracer, "storage.page.decode_page", qi);
                            Store::decode_page(ref->data(), page);
                        }
                        {
                            Scope s(tracer, "storage.page.filter", qi);
                            for (const pgf::GridRecord<D>& r : page) {
                                if (q.contains(r.point)) {
                                    parts[node].push_back(r);
                                }
                            }
                        }
                        {
                            Scope s(tracer, "storage.pool.unpin", qi);
                            ref.reset();
                        }
                        out.decoded += page.size();
                    }
                }
                node_s[node] = tracer.seconds_of(span);
            }
            {
                Scope s(tracer, "bench.gather", qi);
                gathered.clear();
                for (const Records& part : parts) {
                    gathered.insert(gathered.end(), part.begin(), part.end());
                }
            }
        }
        out.returned += gathered.size();
        report.check(fingerprint(gathered) == refs[qi],
                     "replayed query " + std::to_string(qi) +
                         " differs from the serial reference");
        if (tracer.enabled()) {
            double max_s = 0.0;
            double sum_s = 0.0;
            for (double s : node_s) {
                max_s = std::max(max_s, s);
                sum_s += s;
            }
            out.max_node_s.push_back(max_s);
            if (sum_s > 0.0) {
                out.imbalance.push_back(max_s / (sum_s / kNodes));
            }
        }
    }
    out.wall_s = seconds_since(t0);
    return out;
}

/// Mean duration (seconds) of spans named `name`; 0 when none.
double mean_span_s(const std::map<std::string, Tracer::Totals>& totals,
                   const std::string& name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.total_s / static_cast<double>(it->second.count);
}

}  // namespace

void run_serve(const Options& opt, Report& report, bool hot) {
    const Sizes sz = sizes_for(opt);
    pgf::ServingConfig cfg;
    cfg.nodes = kNodes;
    cfg.disks_per_node = 1;
    cfg.workers_per_node = 1;
    cfg.pool_pages = hot ? 1024 : 64;
    cfg.concurrency = hot ? 8 : 4;

    // -- set-up (repeated; the median of each phase is reported) ----------
    Served served;
    std::vector<double> gen_s, load_s, decluster_s, minimax_s;
    const double setup_s = median_setup(3, [&](int) {
        served.file.reset();
        auto t = Clock::now();
        pgf::Rng rng(kDatasetSeed);
        served.ds = pgf::make_dsmc4d(rng, sz.snapshots, sz.per_snapshot);
        gen_s.push_back(seconds_since(t));

        t = Clock::now();
        File::Config fc;
        fc.page_size = Store::page_size_for(served.ds.bucket_capacity);
        served.file.reset(std::make_unique<File>(scratch_path("serve.pgf"),
                                                 served.ds.domain, fc));
        served.file->bulk_load(served.ds.points);
        served.file->flush();
        load_s.push_back(seconds_since(t));

        t = Clock::now();
        const pgf::GridStructure gs = served.file->structure();
        const auto t_mm = Clock::now();
        served.assignment = pgf::decluster(gs, pgf::Method::kMinimax, kNodes,
                                           {.seed = kDatasetSeed + 53});
        minimax_s.push_back(seconds_since(t_mm));
        decluster_s.push_back(seconds_since(t));
    });
    progress("set-up");
    const File& file = *served.file;
    const std::size_t records = served.ds.points.size();
    report.check(file.record_count() == records,
                 "paged bulk load lost records");

    const auto queries =
        make_queries(served.ds, hot, sz.queries, opt.seed);
    std::vector<Fingerprint> refs(queries.size());
    {
        // Answered in Hilbert order of the query centres, so consecutive
        // reference queries share pages in the file's small builder pool.
        std::vector<std::pair<std::uint64_t, std::size_t>> order;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            pgf::Point<D> centre;
            for (std::size_t d = 0; d < D; ++d) {
                centre[d] = 0.5 * (queries[i].lo[d] + queries[i].hi[d]);
            }
            order.emplace_back(pgf::extsort::ExtSorter<D>::hilbert_key(
                                   centre, served.ds.domain, 16),
                               i);
        }
        std::sort(order.begin(), order.end());
        pgf::QueryScratch scratch;
        Records out;
        for (const auto& [key, i] : order) {
            file.query_records(queries[i], scratch, out);
            refs[i] = fingerprint(out);
        }
    }
    std::vector<std::vector<Engine::Query>> batches;
    for (std::size_t off = 0; off < queries.size(); off += sz.batch) {
        batches.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(off),
                             queries.begin() + static_cast<std::ptrdiff_t>(
                                                   off + sz.batch));
    }
    progress("reference answers");

    // -- restart: a cold engine until its first queries are answered ------
    std::vector<double> restart_s;
    const std::vector<Engine::Query> first(
        queries.begin(),
        queries.begin() + static_cast<std::ptrdiff_t>(sz.restart));
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        Engine engine(file, served.assignment, cfg);
        auto out = engine.run(first);
        restart_s.push_back(seconds_since(t0));
        verify_batch(report, out, refs, 0, false);
    }
    progress("restarts");

    // -- measured serving --------------------------------------------------
    Engine engine(file, served.assignment, cfg);
    for (std::size_t j = 0; j < batches.size(); ++j) {  // warm-up pass
        auto out = engine.run(batches[j]);
        verify_batch(report, out, refs, j * sz.batch, false);
    }
    progress("warm-up");
    std::vector<double> latencies;
    std::vector<double> batch_qps;
    std::vector<double> last_latency(queries.size(), 0.0);
    pgf::BufferPool::Stats engine_pool;
    double serving_s = 0.0;
    std::size_t served_queries = 0;
    for (std::size_t j = 0; serving_s < opt.seconds || j < batches.size();
         ++j) {
        const std::size_t b = j % batches.size();
        auto out = engine.run(batches[b]);
        serving_s += out.report.wall_s;
        served_queries += out.results.size();
        batch_qps.push_back(out.report.qps);
        latencies.insert(latencies.end(), out.latencies_ms.begin(),
                         out.latencies_ms.end());
        for (std::size_t i = 0; i < out.latencies_ms.size(); ++i) {
            last_latency[b * sz.batch + i] = out.latencies_ms[i];
        }
        for (const pgf::BufferPool::Stats& s : out.report.node_pools) {
            engine_pool.hits += s.hits;
            engine_pool.misses += s.misses;
        }
        verify_batch(report, out, refs, b * sz.batch,
                     opt.inject_fault && j == 0);
    }

    progress("serving");
    report.e2e("qps", median(batch_qps));
    report.e2e("p50_ms", quantile(latencies, 0.50));
    report.e2e("p99_ms", windowed_p99(latencies));
    report.e2e("records_per_s",
               static_cast<double>(records) / median(load_s));
    report.e2e("recover_s", median(restart_s));
    report.e2e("space_amp",
               static_cast<double>(file_bytes(file.path())) /
                   (static_cast<double>(records) * Store::kRecordBytes));
    report.e2e("setup_s", setup_s);
    report.param("dataset", "dsmc.4d");
    report.param("records", static_cast<double>(records));
    report.param("buckets", static_cast<double>(file.bucket_count()));
    report.param("node_pool_frames", static_cast<double>(cfg.pool_pages));
    report.param("window", static_cast<double>(cfg.concurrency));
    report.param("latency_samples", static_cast<double>(latencies.size()));
    report.param("p99_windows",
                 std::floor(static_cast<double>(latencies.size()) / 1000.0));
    report.param("serving_s", serving_s);
    report.param("served_queries", static_cast<double>(served_queries));

    if (!opt.trace) return;

    // -- traced phase: serial replay of the same queries -------------------
    report.layer("setup.gen_s", median(gen_s));
    report.layer("setup.paged_load_s", median(load_s));
    report.layer("setup.decluster_s", median(decluster_s));
    report.layer("decluster.s", median(minimax_s));
    report.layer("sfc.hilbert_ns_per_key",
                 hilbert_ns_per_key<D>(served.ds.points, served.ds.domain));
    report.layer("storage.pool.engine_hit_rate", engine_pool.hit_rate());
    {
        pgf::ResponseAccumulator acc;
        pgf::QueryScratch scratch;
        std::vector<std::uint32_t> buckets;
        double blocks = 0.0, resp = 0.0, opt_blocks = 0.0;
        for (const pgf::Rect<D>& q : queries) {
            file.query_buckets(q, scratch, buckets);
            blocks += static_cast<double>(buckets.size());
            resp += acc.response_time(buckets, served.assignment);
            opt_blocks += std::ceil(static_cast<double>(buckets.size()) /
                                    kNodes);
        }
        const auto n = static_cast<double>(queries.size());
        report.layer("gridfile.blocks_per_query", blocks / n);
        report.layer("decluster.resp_blocks", resp / n);
        report.layer("decluster.opt_blocks", opt_blocks / n);
    }

    std::vector<std::unique_ptr<pgf::NodeBacking>> nodes;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        nodes.push_back(std::make_unique<pgf::NodeBacking>(file.path(),
                                                           cfg.pool_pages));
    }
    Tracer off(false);
    replay(off, file, served.assignment, queries, sz.replay, nodes, refs,
           report);  // warms the replay pools
    const Replay plain = replay(off, file, served.assignment, queries,
                                sz.replay, nodes, refs, report);
    std::vector<pgf::BufferPool::Stats> before;
    for (auto& n : nodes) before.push_back(n->pool.stats());
    Tracer tracer(true);
    const Replay traced = replay(tracer, file, served.assignment, queries,
                                 sz.replay, nodes, refs, report);
    pgf::BufferPool::Stats delta;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const pgf::BufferPool::Stats s = nodes[n]->pool.stats();
        delta.hits += s.hits - before[n].hits;
        delta.misses += s.misses - before[n].misses;
        delta.evictions += s.evictions - before[n].evictions;
        delta.writebacks += s.writebacks - before[n].writebacks;
    }

    const auto totals = tracer.totals();
    report.layer("gridfile.lookup_us",
                 mean_span_s(totals, "gridfile.query_buckets") * 1e6);
    report.layer("parallel.partition_us",
                 mean_span_s(totals, "parallel.partition_node_blocks") * 1e6);
    report.layer("storage.pool.hit_rate", delta.hit_rate());
    report.layer("storage.pool.evictions",
                 static_cast<double>(delta.evictions));
    report.layer("storage.pool.writebacks",
                 static_cast<double>(delta.writebacks));
    report.layer("storage.pool.fetch_hit_ns",
                 mean_span_s(totals, "storage.pool.fetch_hit") * 1e9);
    report.layer("storage.pool.fetch_miss_us",
                 mean_span_s(totals, "storage.pool.fetch_miss") * 1e6);
    report.layer("storage.page.decode_ns",
                 mean_span_s(totals, "storage.page.decode_page") * 1e9);
    report.layer("storage.page.filter_ns",
                 mean_span_s(totals, "storage.page.filter") * 1e9);
    report.layer("storage.page.useful_ratio",
                 traced.decoded == 0
                     ? 0.0
                     : static_cast<double>(traced.returned) /
                           static_cast<double>(traced.decoded));

    // Engine vs serial: the engine's latency for each replayed query (its
    // last measured serving) minus the slowest node's serial service time.
    std::vector<double> wait_ms;
    double engine_ms = 0.0;
    for (std::size_t qi = 0; qi < traced.max_node_s.size(); ++qi) {
        wait_ms.push_back(last_latency[qi] - traced.max_node_s[qi] * 1e3);
        engine_ms += last_latency[qi];
    }
    report.layer("parallel.wait_ms", mean(wait_ms));
    report.layer("parallel.node_imbalance", mean(traced.imbalance));
    const double serial_ms_per_query =
        plain.wall_s * 1e3 / static_cast<double>(sz.replay);
    report.layer("parallel.engine_over_serial",
                 engine_ms / static_cast<double>(sz.replay) /
                     serial_ms_per_query);
    report_trace(report, tracer, plain.wall_s, traced.wall_s);
    tracer.write_csv(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".csv",
                     "replay");
}

}  // namespace pgfbench

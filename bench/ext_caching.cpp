// Extension experiment — LRU buffer-pool hit rates across pool sizes and
// access patterns.
//
// The paper's workloads produce two patterns a block cache can miss on:
// skewed traffic (most queries revisit the hot-spot clusters' buckets)
// and repeated ranges interleaved with large polluting scans. This bench
// measures how the pool's LRU copes with each: a single-node QueryEngine
// serves three workloads over the hotspot.2d paged grid file —
//
//   uniform  — square queries uniform over the domain (no reuse
//              structure, the control),
//   hotspot  — query centers drawn from the data points themselves, so
//              the clusters' buckets are re-referenced heavily (skew),
//   scan-mix — a small set of repeated hot ranges with every 8th query a
//              large polluting scan (one scan floods a small pool and
//              evicts the hot set),
//
// sweeping pool-pages {16, 64, 256}. Every configuration starts cold
// (fresh engine) and serves the whole workload once; the reported hit
// rate is the demand hit fraction over the full pass and io/q is physical
// page reads (misses) per query. Correctness anchor: for a fixed workload
// every pool size must return the same total record count (the pool may
// only change *when* pages are read, never what the queries see); any
// divergence aborts with exit 1.
//
// --bench-json <file> writes a pgf-bench-v2 report with one cell per
// "<workload>/p=<pages>": latency, the pool's counters and io/q.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

#include "pgf/parallel/query_engine.hpp"

namespace pgf::bench {
namespace {

/// Physical page reads (demand misses) per query.
double io_per_query(const ServingReport& r) {
    if (r.queries == 0) return 0.0;
    return static_cast<double>(r.node_pools.at(0).misses) /
           static_cast<double>(r.queries);
}

/// Square rect of `area_ratio` of the domain's area centered at `c`
/// (clamped to the domain).
Rect<2> square_at(const Rect<2>& domain, const Point<2>& c,
                  double area_ratio) {
    const double side = std::sqrt(area_ratio);
    Rect<2> q;
    for (std::size_t i = 0; i < 2; ++i) {
        const double len = side * domain.extent(i);
        q.lo[i] = std::max(domain.lo[i], c[i] - 0.5 * len);
        q.hi[i] = std::min(domain.hi[i], c[i] + 0.5 * len);
    }
    return q;
}

/// Skewed workload: query centers are data points, so the hot clusters'
/// buckets absorb most of the traffic.
std::vector<Rect<2>> hotspot_queries(const Dataset<2>& ds, double area_ratio,
                                     std::size_t count, Rng& rng) {
    std::vector<Rect<2>> queries;
    queries.reserve(count);
    const auto n = static_cast<std::uint32_t>(ds.points.size());
    for (std::size_t i = 0; i < count; ++i) {
        const Point<2>& c = ds.points[rng.below(n)];
        queries.push_back(square_at(ds.domain, c, area_ratio));
    }
    return queries;
}

/// Scan-resistance workload: 7 of 8 queries repeat one of `hot_set` small
/// ranges; every 8th is a fresh large scan that floods a small pool.
std::vector<Rect<2>> scan_mix_queries(const Dataset<2>& ds,
                                      std::size_t count, Rng& rng) {
    constexpr std::size_t kHotRects = 4;
    constexpr double kHotArea = 0.005;
    constexpr double kScanArea = 0.25;
    std::vector<Rect<2>> hot_set;
    hot_set.reserve(kHotRects);
    const auto n = static_cast<std::uint32_t>(ds.points.size());
    for (std::size_t i = 0; i < kHotRects; ++i) {
        const Point<2>& c = ds.points[rng.below(n)];
        hot_set.push_back(square_at(ds.domain, c, kHotArea));
    }
    std::vector<Rect<2>> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 8 == 7) {
            Point<2> c;
            for (std::size_t d = 0; d < 2; ++d) {
                c[d] = rng.uniform(ds.domain.lo[d], ds.domain.hi[d]);
            }
            queries.push_back(square_at(ds.domain, c, kScanArea));
        } else {
            queries.push_back(
                hot_set[rng.below(static_cast<std::uint32_t>(
                    hot_set.size()))]);
        }
    }
    return queries;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);

    print_banner(opt,
                 "Extension — LRU pool size vs hit rate",
                 "hotspot.2d paged grid file, 1-node QueryEngine; demand "
                 "hit rate, physical reads/query and p50/p99 latency vs "
                 "pool-pages x workload");
    Rng rng(opt.seed);
    auto wb = make_workbench<2>(
        rng, [](Rng& r) { return make_hotspot2d(r, 10000); });
    const Workbench<2>& bench = *wb;
    std::cout << bench.summary() << "\n";

    // Hit rates are a property of the disk image.
    util::TempDir dir("pgf-ext-caching");
    const auto paged = paged_copy(bench.dataset, dir.file("hotspot.pgf"));
    const PagedGridFile<2>& pgf2 = *paged;

    // Every bucket on the one node's one disk: this bench isolates the
    // caching behavior, not the declustering (ext_serving covers that).
    Assignment assignment;
    assignment.num_disks = 1;
    assignment.disk_of.assign(pgf2.bucket_count(), 0);

    struct Workload {
        std::string name;
        std::vector<Rect<2>> queries;
    };
    Rng qrng(opt.seed + 15000);
    std::vector<Workload> workloads;
    workloads.push_back(
        {"uniform",
         square_queries(bench.dataset.domain, 0.02, opt.queries, qrng)});
    workloads.push_back(
        {"hotspot",
         hotspot_queries(bench.dataset, 0.02, opt.queries, qrng)});
    workloads.push_back(
        {"scan-mix", scan_mix_queries(bench.dataset, opt.queries, qrng)});

    const std::vector<std::size_t> pool_sweep{16, 64, 256};

    BenchReport report("ext_caching", opt.seed);
    report.param("queries", static_cast<double>(opt.queries));
    bool consistent = true;
    for (const Workload& wl : workloads) {
        std::vector<QueryEngine<2>::Query> engine_queries(
            wl.queries.begin(), wl.queries.end());
        TextTable table({"pool", "hit rate", "io/q", "p50 ms", "p99 ms"});
        std::uint64_t expected_records = 0;
        bool have_expected = false;
        for (std::size_t pool_pages : pool_sweep) {
            ServingConfig cfg;
            cfg.nodes = 1;
            cfg.workers_per_node = 1;
            cfg.pool_pages = pool_pages;
            cfg.concurrency = 1;
            // Fresh engine per cell: every configuration starts cold and
            // serves the whole workload once.
            QueryEngine<2> engine(pgf2, assignment, cfg);
            const ServingReport r = engine.run(engine_queries).report;
            const BufferPool::Stats& pool = r.node_pools.at(0);
            if (!have_expected) {
                expected_records = r.records_returned;
                have_expected = true;
            } else if (r.records_returned != expected_records) {
                consistent = false;
            }
            const std::string cell =
                wl.name + "/p=" + std::to_string(pool_pages);
            report.serving(cell, r);
            report.pool(cell, pool);
            report.metric(cell, "io_per_query", io_per_query(r), "count",
                          Better::kLower);
            table.add(pool_pages, format_double(pool.hit_rate(), 3),
                      format_double(io_per_query(r)),
                      format_double(r.p50_ms, 3), format_double(r.p99_ms, 3));
        }
        emit(opt, table, "ext_caching_" + wl.name);
    }

    if (!opt.bench_json.empty()) report.write(opt.bench_json);
    if (!consistent) {
        std::cerr << "ext_caching: record counts DIVERGED across pool "
                     "configurations of one workload\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

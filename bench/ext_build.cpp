// Extension experiment — out-of-core build pipeline throughput.
//
// The streaming loader (ExtSorter -> bulk_load_stream, pgf/core/extsort.hpp)
// claims grid files of 10^7-10^8 records build through the paged backend
// with memory bounded by the buffer pool plus one sort chunk and its radix
// buffer (three merge blocks once the load starts), instead of
// materializing every point (and the whole file) in RAM. This bench measures that claim end to end: points are *generated*
// as a stream (never held as a vector), keyed and sorted externally along
// the Hilbert curve, then bulk-loaded in Hilbert order through the batched
// paged store, sweeping
//
//   N            {10^6, 10^7}  (10^8 opt-in via PGF_EXTBUILD_HUGE=1;
//                               PGF_EXTBUILD_N=<n> overrides the list —
//                               the CI smoke lane runs N=10^6 only)
//   pool pages   {1024, 4096}  (the *entire* build-side page cache)
//   sort threads {1, 4}        (the run-formation pool only; the output
//                               is bit-identical across thread counts.
//                               At every count the final merge runs on one
//                               thread of its own beside the loader, so
//                               "load ms" is merge and load overlapped)
//
// and reporting build rate (records/sec), spill volume, merge fan-in /
// passes, process peak RSS, and post-build query latency against the
// freshly built file (p50/p99 over square queries, cold pool). RSS is
// ru_maxrss — a process-lifetime high-water mark, so within one process
// the meaningful reading is the first cell of each N (cells run smallest
// N first; the 10^7 rows therefore report the pipeline's true footprint).
//
// Correctness anchor: at N <= 10^6 the streamed build is compared
// structurally — scales, directory, every bucket's record order — against
// an in-memory GridFile bulk-loaded with the same sorted sequence; any
// divergence aborts with exit 1 (the tests assert this at small N; the
// bench re-asserts it at full bench scale).
//
// --bench-json <file> writes a pgf-bench-v2 report with one cell per
// "n=<N>/p=<pages>/t=<threads>": build rate, sort/load time, spill, RSS,
// the build pool's counters and the probe latency.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/resource.h>
#endif

#include "common.hpp"

#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"

namespace pgf::bench {
namespace {

using extsort::ExtSortConfig;
using extsort::ExtSorter;
using extsort::ExtSortStats;

/// Process peak RSS in MB (0 where getrusage is unavailable).
double peak_rss_mb() {
#ifndef _WIN32
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        // ru_maxrss is KB on Linux.
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
#endif
    return 0.0;
}

/// The sweep's N values: PGF_EXTBUILD_N overrides everything; otherwise
/// {1e6, 1e7} plus 1e8 when PGF_EXTBUILD_HUGE=1.
std::vector<std::uint64_t> record_counts() {
    if (const auto n = env_count("PGF_EXTBUILD_N")) return {*n};
    std::vector<std::uint64_t> counts{1000000, 10000000};
    if (const char* huge = std::getenv("PGF_EXTBUILD_HUGE");
        huge && *huge == '1') {
        counts.push_back(100000000);
    }
    return counts;
}

/// Structural identity of the streamed paged build against an in-memory
/// bulk_load of the same sorted sequence. Returns false on any mismatch
/// (reported, not asserted — the bench exits 1).
bool verify_against_memory(const PagedGridFile<2>& pf,
                           const std::vector<Point<2>>& sorted) {
    GridFile<2>::Config cfg;
    cfg.bucket_capacity = pf.capacity();
    GridFile<2> gf(pf.domain(), cfg);
    gf.bulk_load(sorted);

    auto fail = [](const std::string& what) {
        std::cerr << "ext_build: VERIFICATION FAILED (" << what << ")\n";
        return false;
    };
    if (gf.record_count() != pf.record_count()) return fail("record_count");
    if (gf.bucket_count() != pf.bucket_count()) return fail("bucket_count");
    if (gf.refinement_count() != pf.refinement_count()) {
        return fail("refinement_count");
    }
    for (std::size_t i = 0; i < 2; ++i) {
        if (gf.scale(i).splits() != pf.scale(i).splits()) {
            return fail("scale " + std::to_string(i));
        }
    }
    if (gf.grid_shape() != pf.grid_shape()) return fail("grid_shape");
    bool dirs_equal = true;
    CellBox<2> all;
    all.lo.fill(0);
    all.hi = gf.grid_shape();
    for_each_cell(all, [&](const std::array<std::uint32_t, 2>& cell) {
        dirs_equal = dirs_equal && gf.directory().at(cell) ==
                                       pf.directory().at(cell);
    });
    if (!dirs_equal) return fail("directory");
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        const auto& mem = gf.bucket_records(b);
        const auto& paged = pf.bucket_records(b);
        if (mem.size() != paged.size()) {
            return fail("bucket " + std::to_string(b) + " size");
        }
        for (std::size_t k = 0; k < mem.size(); ++k) {
            if (mem[k].id != paged[k].id || mem[k].point != paged[k].point) {
                return fail("bucket " + std::to_string(b) + " record " +
                            std::to_string(k));
            }
        }
    }
    return true;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt,
                 "Extension — out-of-core build pipeline throughput",
                 "streamed uniform.2d points -> external Hilbert sort -> "
                 "batched bulk load into the paged backend; build rate, "
                 "spill volume, peak RSS and post-build query latency vs "
                 "N x pool-pages x sort-threads");

    const std::vector<std::uint64_t> counts = record_counts();
    const std::vector<std::size_t> pool_sweep{1024, 4096};
    const std::vector<unsigned> thread_sweep{1, 4};
    // Post-build probe: modest square queries, cold pool, exact quantiles.
    const std::size_t probe_queries = std::min<std::size_t>(opt.queries, 500);

    BenchReport report("ext_build", opt.seed);
    report.param("probe_queries", static_cast<double>(probe_queries));
    bool verified_ok = true;
    for (std::uint64_t n : counts) {
        TextTable table({"n", "pool", "thr", "runs", "passes", "spill MB",
                         "sort ms", "load ms", "Mrec/s", "rss MB", "q p50 ms",
                         "q p99 ms"});
        // The in-memory golden build wants the sorted sequence; collect it
        // once per N (same seed => every cell streams identical points).
        const bool verify = n <= 1000000;
        for (std::size_t pool_pages : pool_sweep) {
            for (unsigned threads : thread_sweep) {
                StreamDataset<2> ds =
                    make_uniform2d_stream(Rng(opt.seed), n);
                ThreadPool sort_pool(threads);
                ExtSortConfig cfg;
                cfg.pool = &sort_pool;
                const std::string cell = "n=" + std::to_string(n) +
                                         "/p=" + std::to_string(pool_pages) +
                                         "/t=" + std::to_string(threads);

                // Sort: run formation + reduction (the ExtSorter ctor).
                double t0 = now_ms();
                ExtSorter<2> sorter(*ds.source, ds.domain, cfg);
                const double sort_ms = now_ms() - t0;
                const ExtSortStats sort = sorter.stats();

                PagedGridFile<2>::Config pcfg;
                pcfg.page_size =
                    PagedBucketStore<2>::page_size_for(ds.bucket_capacity);
                pcfg.pool_pages = pool_pages;
                PagedGridFile<2> pf(unique_backing_path("extbuild." + cell),
                                    ds.domain, pcfg);
                // Load: the merge thread streaming into bulk_load_stream,
                // then flush.
                t0 = now_ms();
                const std::uint64_t loaded = pf.bulk_load_stream(sorter);
                pf.flush();
                const double load_ms = now_ms() - t0;
                PGF_CHECK(loaded == n, "ext_build: stream count mismatch");
                const BufferPool::Stats pool = pf.pool().stats();
                const double rss_mb = peak_rss_mb();

                if (verify) {
                    StreamDataset<2> again =
                        make_uniform2d_stream(Rng(opt.seed), n);
                    ExtSorter<2> resort(*again.source, ds.domain, cfg);
                    std::vector<Point<2>> sorted;
                    sorted.reserve(n);
                    std::vector<Point<2>> block(1 << 14);
                    for (;;) {
                        const std::size_t got = resort.next(
                            std::span<Point<2>>(block.data(), block.size()));
                        if (got == 0) break;
                        sorted.insert(sorted.end(), block.begin(),
                                      block.begin() +
                                          static_cast<std::ptrdiff_t>(got));
                    }
                    verified_ok =
                        verify_against_memory(pf, sorted) && verified_ok;
                }

                // Query probe against the freshly built file (pool still
                // warm from the build's tail: realistic post-build state).
                Rng qrng(opt.seed + 31000);
                const auto probes =
                    square_queries(ds.domain, 0.001, probe_queries, qrng);
                LatencyHistogram lat;
                std::uint64_t total_records = 0;
                for (const Rect<2>& q : probes) {
                    const double qs = now_ms();
                    total_records += pf.query_records(q).size();
                    lat.record(now_ms() - qs);
                }
                PGF_CHECK(probes.empty() || total_records > 0,
                          "ext_build: probe queries returned nothing");

                const double build_ms = sort_ms + load_ms;
                const double records_per_s =
                    build_ms > 0.0
                        ? static_cast<double>(n) / (build_ms / 1000.0)
                        : 0.0;
                report.metric(cell, "records_per_s", records_per_s, "1/s",
                              Better::kHigher);
                report.metric(cell, "sort_ms", sort_ms, "ms", Better::kLower);
                report.metric(cell, "load_ms", load_ms, "ms", Better::kLower);
                report.metric(cell, "initial_runs",
                              static_cast<double>(sort.initial_runs), "count",
                              Better::kLower);
                report.metric(cell, "merge_passes",
                              static_cast<double>(sort.merge_passes), "count",
                              Better::kLower);
                report.metric(cell, "spill_bytes",
                              static_cast<double>(sort.spill_bytes), "bytes",
                              Better::kLower);
                report.metric(cell, "peak_rss_mb", rss_mb, "MB",
                              Better::kLower);
                report.pool(cell, pool);
                report.metric(cell, "q_p50_ms", lat.p50(), "ms",
                              Better::kLower);
                report.metric(cell, "q_p99_ms", lat.p99(), "ms",
                              Better::kLower);
                table.add(n, pool_pages, threads, sort.initial_runs,
                          sort.merge_passes,
                          format_double(static_cast<double>(
                                            sort.spill_bytes) /
                                        (1024.0 * 1024.0)),
                          format_double(sort_ms), format_double(load_ms),
                          format_double(records_per_s / 1e6),
                          format_double(rss_mb), format_double(lat.p50(), 3),
                          format_double(lat.p99(), 3));
                const std::string backing = pf.path();
                // pf closes at scope end; drop the backing file with it.
                std::remove(backing.c_str());
            }
        }
        emit(opt, table, "ext_build_n" + std::to_string(n));
    }

    if (!opt.bench_json.empty()) report.write(opt.bench_json);
    if (!verified_ok) {
        std::cerr << "ext_build: streamed build DIVERGED from the in-memory "
                     "bulk load\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// Micro benchmarks (google-benchmark): throughput of the primitives the
// experiment pipeline leans on — Hilbert mapping and the external sort's
// key and run formation, the streamed out-of-core build, proximity
// evaluation, grid-file insertion and range queries (allocating and
// scratch-reusing paths), the page checksum, workload evaluation, and
// each declustering algorithm.
//
// `--csv-dir <dir>` additionally writes <dir>/BENCH_micro.json
// (google-benchmark's JSON format; compare runs with tools/bench_diff).
// All other flags pass through to google-benchmark.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/decluster/registry.hpp"
#include "pgf/decluster/similarity.hpp"
#include "pgf/decluster/weights.hpp"
#include "pgf/disksim/simulator.hpp"
#include "pgf/gridfile/directory.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/sfc/hilbert.hpp"
#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/util/thread_pool.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgf {
namespace {

void BM_HilbertIndex2d(benchmark::State& state) {
    const auto bits = static_cast<unsigned>(state.range(0));
    Rng rng(1);
    std::vector<std::uint32_t> coords(2);
    const std::uint32_t mask = bits == 32 ? ~0u : (1u << bits) - 1;
    for (auto _ : state) {
        coords[0] = rng.next_u32() & mask;
        coords[1] = rng.next_u32() & mask;
        benchmark::DoNotOptimize(sfc::hilbert_index(coords, bits));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HilbertIndex2d)->Arg(4)->Arg(8)->Arg(16);

void BM_HilbertIndex4d(benchmark::State& state) {
    Rng rng(1);
    std::vector<std::uint32_t> coords(4);
    for (auto _ : state) {
        for (auto& c : coords) c = rng.next_u32() & 0xff;
        benchmark::DoNotOptimize(sfc::hilbert_index(coords, 8));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HilbertIndex4d);

/// Uniform points over the unit cube.
template <std::size_t D>
std::vector<Point<D>> unit_points(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Point<D>> pts(n);
    for (Point<D>& p : pts) {
        for (std::size_t i = 0; i < D; ++i) p[i] = rng.uniform();
    }
    return pts;
}

template <std::size_t D>
Rect<D> unit_cube() {
    Rect<D> r;
    for (std::size_t i = 0; i < D; ++i) r.hi[i] = 1.0;
    return r;
}

// The external sort's key: quantize a point to 16 bits per axis, then the
// compile-time-D Hilbert kernel.
template <std::size_t D>
void BM_HilbertKey(benchmark::State& state) {
    const auto pts = unit_points<D>(1 << 16, 11);
    const Rect<D> domain = unit_cube<D>();
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            extsort::ExtSorter<D>::hilbert_key(pts[k], domain, 16));
        k = (k + 1) & (pts.size() - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_HilbertKey, 2);
BENCHMARK_TEMPLATE(BM_HilbertKey, 3);
BENCHMARK_TEMPLATE(BM_HilbertKey, 4);

// Run formation of one 2^20-record chunk of 2-d points: key, sort and
// spill it as one run (the sorter's construction), on Arg lanes.
void BM_ExtSortRunFormation(benchmark::State& state) {
    const auto lanes = static_cast<unsigned>(state.range(0));
    const auto pts = unit_points<2>(1 << 20, 12);
    // ThreadPool(0) would size itself to the host, so one lane is no pool.
    const auto pool =
        lanes > 1 ? std::make_unique<ThreadPool>(lanes - 1) : nullptr;
    extsort::ExtSortConfig cfg;
    cfg.chunk_records = pts.size();
    cfg.pool = pool.get();
    for (auto _ : state) {
        VectorPointSource<2> source(pts);
        extsort::ExtSorter<2> sorter(source, unit_cube<2>(), cfg);
        benchmark::DoNotOptimize(sorter.stats().spill_bytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_ExtSortRunFormation)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ProximityIndex(benchmark::State& state) {
    Rng rng(2);
    auto ds = make_hotspot2d(rng, 10000);
    GridStructure gs = ds.build().structure();
    BucketWeights w(gs);
    std::size_t i = 0, j = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(w(i, j));
        if (++j >= w.size()) {
            j = 0;
            if (++i >= w.size()) i = 0;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProximityIndex);

/// D-dimensional Cartesian structure with side^D buckets and a different
/// domain extent per dimension (so no term degenerates to a constant).
GridStructure kernel_structure(std::size_t dims, std::uint32_t side) {
    std::vector<std::uint32_t> shape(dims, side);
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims);
    for (std::size_t i = 0; i < dims; ++i) {
        hi[i] = static_cast<double>(side) * static_cast<double>(i + 1);
    }
    return make_cartesian_structure(shape, lo, hi);
}

std::string kernel_label(const GridStructure& gs) {
    return "D=" + std::to_string(gs.dims()) +
           " N=" + std::to_string(gs.bucket_count());
}

// Baseline the row kernels are judged against: one full weight row
// computed through the scalar pair interface.
void BM_ProximityRowScalar(benchmark::State& state) {
    GridStructure gs =
        kernel_structure(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::uint32_t>(state.range(1)));
    BucketWeights w(gs);
    const std::size_t n = w.size();
    std::vector<double> row(n);
    std::size_t i = 0;
    for (auto _ : state) {
        for (std::size_t j = 0; j < n; ++j) row[j] = w(i, j);
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
        i = (i + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(kernel_label(gs));
}
BENCHMARK(BM_ProximityRowScalar)
    ->Args({2, 32})->Args({2, 64})
    ->Args({3, 11})->Args({3, 16})
    ->Args({4, 6})->Args({4, 8});

void BM_ProximityRowKernel(benchmark::State& state) {
    GridStructure gs =
        kernel_structure(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::uint32_t>(state.range(1)));
    BucketWeights w(gs);
    const std::size_t n = w.size();
    std::vector<double> row(n);
    std::size_t i = 0;
    for (auto _ : state) {
        w.fill_row(i, row.data());
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
        i = (i + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(kernel_label(gs));
}
BENCHMARK(BM_ProximityRowKernel)
    ->Args({2, 32})->Args({2, 64})
    ->Args({3, 11})->Args({3, 16})
    ->Args({4, 6})->Args({4, 8});

void BM_ProximityTileKernel(benchmark::State& state) {
    GridStructure gs =
        kernel_structure(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::uint32_t>(state.range(1)));
    BucketWeights w(gs);
    const std::size_t n = w.size();
    constexpr std::size_t kRows = 32;
    std::vector<double> tile(kRows * n);
    std::size_t r = 0;
    std::int64_t items = 0;
    for (auto _ : state) {
        const std::size_t end = std::min(r + kRows, n);
        w.fill_tile(r, end, 0, n, tile.data());
        benchmark::DoNotOptimize(tile.data());
        benchmark::ClobberMemory();
        items += static_cast<std::int64_t>((end - r) * n);
        r = end >= n ? 0 : end;
    }
    state.SetItemsProcessed(items);
    state.SetLabel(kernel_label(gs));
}
BENCHMARK(BM_ProximityTileKernel)
    ->Args({2, 64})->Args({3, 16})->Args({4, 8});

void BM_CenterRowScalar(benchmark::State& state) {
    GridStructure gs = kernel_structure(2, 64);
    BucketWeights w(gs, WeightKind::kCenterSimilarity);
    const std::size_t n = w.size();
    std::vector<double> row(n);
    std::size_t i = 0;
    for (auto _ : state) {
        for (std::size_t j = 0; j < n; ++j) row[j] = w(i, j);
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
        i = (i + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(kernel_label(gs));
}
BENCHMARK(BM_CenterRowScalar);

void BM_CenterRowKernel(benchmark::State& state) {
    GridStructure gs = kernel_structure(2, 64);
    BucketWeights w(gs, WeightKind::kCenterSimilarity);
    const std::size_t n = w.size();
    std::vector<double> row(n);
    std::size_t i = 0;
    for (auto _ : state) {
        w.fill_row(i, row.data());
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
        i = (i + 1) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(kernel_label(gs));
}
BENCHMARK(BM_CenterRowKernel);

// Whole-algorithm effect of the inner pool on a 4096-bucket structure
// (the README Performance table is generated from these).
void BM_MstInnerThreads(benchmark::State& state) {
    const auto threads = static_cast<unsigned>(state.range(0));
    GridStructure gs = kernel_structure(2, 64);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    SimilarityOptions opt;
    opt.pool = pool.get();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mst_decluster(gs, 16, opt));
    }
    state.SetLabel("N=" + std::to_string(gs.bucket_count()) +
                   " inner-threads=" + std::to_string(threads));
}
BENCHMARK(BM_MstInnerThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SspInnerThreads(benchmark::State& state) {
    const auto threads = static_cast<unsigned>(state.range(0));
    GridStructure gs = kernel_structure(2, 64);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    SimilarityOptions opt;
    opt.pool = pool.get();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ssp_decluster(gs, 16, opt));
    }
    state.SetLabel("N=" + std::to_string(gs.bucket_count()) +
                   " inner-threads=" + std::to_string(threads));
}
BENCHMARK(BM_SspInnerThreads)->Arg(1)->Arg(2)->Arg(4);

template <std::size_t D>
Rect<D> build_domain() {
    Rect<D> r;
    for (std::size_t i = 0; i < D; ++i) {
        r.lo[i] = 0.0;
        r.hi[i] = 2000.0;
    }
    return r;
}

template <std::size_t D>
std::vector<Point<D>> uniform_points(std::size_t n) {
    Rng rng(3);
    std::vector<Point<D>> pts(n);
    for (Point<D>& p : pts) {
        for (std::size_t i = 0; i < D; ++i) p[i] = rng.uniform(0.0, 2000.0);
    }
    return pts;
}

// Construction baseline: the one-record-at-a-time insert() path.
template <std::size_t D>
void BM_GridFileInsert(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto pts = uniform_points<D>(n);
    for (auto _ : state) {
        GridFile<D> gf(build_domain<D>(), {.bucket_capacity = 56});
        for (std::size_t i = 0; i < n; ++i) gf.insert(pts[i], i);
        benchmark::DoNotOptimize(gf.bucket_count());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_GridFileInsert, 2)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_GridFileInsert, 3)->Arg(10000)->Arg(100000);

// This binary does not link pgf_bench_common, so it carries its own
// collision-free backing-path helper for the disk-backed benchmarks.
std::string paged_backing_path(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("pgf-micro-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)) + ".paged"))
        .string();
}

// Disk-backed construction: the same insert loop (through bulk_load), but
// every bucket mutation round-trips through the page codec and the LRU
// buffer pool (sized so the working set stays resident — the honest
// "paging tax" floor). Compare against BM_GridFileInsert at equal
// capacity.
template <std::size_t D>
void BM_PagedBuild(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto pts = uniform_points<D>(n);
    const std::string path = paged_backing_path("build");
    typename PagedGridFile<D>::Config cfg;
    cfg.page_size = PagedBucketStore<D>::page_size_for(56);
    cfg.pool_pages = 8192;
    for (auto _ : state) {
        PagedGridFile<D> pf(path, build_domain<D>(), cfg);
        pf.bulk_load(pts);
        benchmark::DoNotOptimize(pf.bucket_count());
    }
    std::filesystem::remove(path);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_PagedBuild, 2)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_PagedBuild, 3)->Arg(10000)->Arg(100000);

// The same random-order build through the default 128-frame pool, then
// a flush: serve_cold's set-up shape, where the file outgrows the pool,
// so every page the build touches again must come back in.
template <std::size_t D>
void BM_PagedBuildSmallPool(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto pts = uniform_points<D>(n);
    const std::string path = paged_backing_path("build-small-pool");
    typename PagedGridFile<D>::Config cfg;
    cfg.page_size = PagedBucketStore<D>::page_size_for(56);
    for (auto _ : state) {
        PagedGridFile<D> pf(path, build_domain<D>(), cfg);
        pf.bulk_load(pts);
        pf.flush();
        benchmark::DoNotOptimize(pf.bucket_count());
    }
    std::filesystem::remove(path);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_PagedBuildSmallPool, 2)->Arg(100000);
BENCHMARK_TEMPLATE(BM_PagedBuildSmallPool, 4)->Arg(100000);

/// The paged file the streamed-build benchmarks load: capacity 56 (the
/// uniform.2d dataset's) behind a 1024-frame pool.
PagedGridFile<2>::Config stream_build_config() {
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(56);
    cfg.pool_pages = 1024;
    return cfg;
}

// The load half of the out-of-core build: 2^20 Hilbert-sorted 2-d points
// through bulk_load_stream into a paged file, then flush.
void BM_StreamedLoad(benchmark::State& state) {
    const auto pts = unit_points<2>(1 << 20, 13);
    std::vector<Point<2>> sorted(pts.size());
    {
        VectorPointSource<2> source(pts);
        extsort::ExtSorter<2> sorter(source, unit_cube<2>());
        std::size_t got = 0;
        while (got < sorted.size()) {
            const std::size_t k = sorter.next(std::span<Point<2>>(
                sorted.data() + got, sorted.size() - got));
            if (k == 0) break;
            got += k;
        }
    }
    const std::string path = paged_backing_path("stream");
    for (auto _ : state) {
        PagedGridFile<2> pf(path, unit_cube<2>(), stream_build_config());
        VectorPointSource<2> source(sorted);
        pf.bulk_load_stream(source);
        pf.flush();
        benchmark::DoNotOptimize(pf.bucket_count());
    }
    std::filesystem::remove(path);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_StreamedLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

// The whole out-of-core build of 2^20 2-d points on Arg sort lanes: run
// formation (two runs), the final merge on its thread streaming into
// bulk_load_stream, and flush — build_stream's pipeline at half its size.
void BM_ExtSortBuild(benchmark::State& state) {
    const auto lanes = static_cast<unsigned>(state.range(0));
    const auto pts = unit_points<2>(1 << 20, 12);
    // ThreadPool(0) would size itself to the host, so one lane is no pool.
    const auto pool =
        lanes > 1 ? std::make_unique<ThreadPool>(lanes - 1) : nullptr;
    extsort::ExtSortConfig cfg;
    cfg.chunk_records = pts.size() / 2;
    cfg.pool = pool.get();
    const std::string path = paged_backing_path("extbuild");
    for (auto _ : state) {
        VectorPointSource<2> source(pts);
        extsort::ExtSorter<2> sorter(source, unit_cube<2>(), cfg);
        PagedGridFile<2> pf(path, unit_cube<2>(), stream_build_config());
        pf.bulk_load_stream(sorter);
        pf.flush();
        benchmark::DoNotOptimize(pf.bucket_count());
    }
    std::filesystem::remove(path);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_ExtSortBuild)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Directory growth in isolation: grow 1x1 to side x side by alternating
// axis expansions (the run-copying rewrite's target operation).
void BM_DirectoryExpand(benchmark::State& state) {
    const auto side = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        GridDirectory<2> dir(0);
        for (std::uint32_t s = 1; s < side; ++s) {
            dir.expand(0, s - 1);
            dir.expand(1, s - 1);
        }
        benchmark::DoNotOptimize(dir.cell_count());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel("1x1 -> " + std::to_string(side) + "x" +
                   std::to_string(side));
}
BENCHMARK(BM_DirectoryExpand)->Arg(64)->Arg(128);

void BM_GridFileRangeQuery(benchmark::State& state) {
    Rng rng(4);
    auto ds = make_hotspot2d(rng, 10000);
    GridFile<2> gf = ds.build();
    Rng qrng(5);
    auto queries = square_queries(ds.domain, 0.05, 512, qrng);
    std::size_t q = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gf.query_buckets(queries[q]));
        q = (q + 1) % queries.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GridFileRangeQuery);

void BM_GridFileRangeQueryScratch(benchmark::State& state) {
    // The allocation-free hot path: same workload as BM_GridFileRangeQuery
    // but with an epoch-stamped QueryScratch and a reused output vector.
    Rng rng(4);
    auto ds = make_hotspot2d(rng, 10000);
    GridFile<2> gf = ds.build();
    Rng qrng(5);
    auto queries = square_queries(ds.domain, 0.05, 512, qrng);
    QueryScratch scratch;
    std::vector<std::uint32_t> out;
    std::size_t q = 0;
    for (auto _ : state) {
        gf.query_buckets(queries[q], scratch, out);
        benchmark::DoNotOptimize(out.data());
        q = (q + 1) % queries.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GridFileRangeQueryScratch);

// Record materialization from the in-memory store: the baseline for the
// paged variant below (same dataset, same 512 queries).
void BM_GridFileQueryRecords(benchmark::State& state) {
    Rng rng(4);
    auto ds = make_hotspot2d(rng, 10000);
    GridFile<2> gf = ds.build();
    Rng qrng(5);
    auto queries = square_queries(ds.domain, 0.05, 512, qrng);
    std::size_t q = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gf.query_records(queries[q]));
        q = (q + 1) % queries.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GridFileQueryRecords);

// Record materialization through the buffer pool. The argument is the pool
// size in frames: 1024 keeps every bucket resident after the first pass
// (pure decode cost), 16 forces evictions and re-reads on every query.
void BM_PagedQueryRecords(benchmark::State& state) {
    Rng rng(4);
    auto ds = make_hotspot2d(rng, 10000);
    const std::string path = paged_backing_path("query");
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(ds.bucket_capacity);
    cfg.pool_pages = static_cast<std::size_t>(state.range(0));
    PagedGridFile<2> pf(path, ds.domain, cfg);
    pf.bulk_load(ds.points);
    Rng qrng(5);
    auto queries = square_queries(ds.domain, 0.05, 512, qrng);
    std::size_t q = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pf.query_records(queries[q]));
        q = (q + 1) % queries.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::to_string(pf.bucket_count()) + " buckets, " +
                   std::to_string(cfg.pool_pages) + " frames");
    std::filesystem::remove(path);
}
BENCHMARK(BM_PagedQueryRecords)->Arg(1024)->Arg(16);

// The checksum behind every page verify and stamp, WAL record and catalog,
// on the kernel crc32c picks for this CPU: a 64-byte buffer (a small WAL
// record) and an 8 KB page (the benchmark workloads' page size). Random
// bytes, so no kernel can shortcut the input.
void BM_Crc32c(benchmark::State& state) {
    const auto bytes = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    std::vector<std::byte> data(bytes);
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u32());
    for (auto _ : state) benchmark::DoNotOptimize(crc32c(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(8192);

// Victim selection through a real pool: F frames over F+1 pages of 64
// bytes, fetched in a cycle after a warm-up fill, so every iteration is
// one miss plus one eviction of the least recently used frame. The LRU
// list makes the replacement work O(1) per round, so the time per round
// stays flat across the frame sweep; a victim walk that slid back to a
// frame scan would rise with F. The tiny page keeps the read and its
// checksum small next to the replacement work.
void BM_PoolVictimSelection(benchmark::State& state) {
    const auto frames = static_cast<std::uint64_t>(state.range(0));
    const std::string path = paged_backing_path("victim");
    {
        auto file = PageFile::create(path, 64);
        for (std::uint64_t p = 0; p <= frames; ++p) file.allocate();
        BufferPool pool(file, static_cast<std::size_t>(frames));
        std::uint64_t page = 0;
        for (; page < frames; ++page) (void)pool.fetch(page);
        for (auto _ : state) {
            benchmark::DoNotOptimize(pool.fetch(page).page_id());
            page = page == frames ? 0 : page + 1;
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()));
        state.SetLabel(std::to_string(frames) + " frames");
    }
    std::filesystem::remove(path);
}
BENCHMARK(BM_PoolVictimSelection)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EvaluateWorkload(benchmark::State& state) {
    // The inner loop of every sweep configuration: precollected bucket
    // sets evaluated against one assignment (epoch-stamped per-disk
    // counters, no per-query histogram allocation).
    Rng rng(4);
    auto ds = make_hotspot2d(rng, 10000);
    GridFile<2> gf = ds.build();
    Rng qrng(5);
    auto qb = collect_query_buckets(
        gf, square_queries(ds.domain, 0.05, 1000, qrng));
    Assignment a =
        decluster(gf.structure(), Method::kHilbert, 16, {.seed = 7});
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluate_workload(qb, a));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(qb.size()));
}
BENCHMARK(BM_EvaluateWorkload);

void BM_Decluster(benchmark::State& state) {
    const Method method = static_cast<Method>(state.range(0));
    const auto disks = static_cast<std::uint32_t>(state.range(1));
    Rng rng(6);
    auto ds = make_hotspot2d(rng, 10000);
    GridStructure gs = ds.build().structure();
    for (auto _ : state) {
        benchmark::DoNotOptimize(decluster(gs, method, disks, {.seed = 7}));
    }
    state.SetLabel(to_string(method) + " M=" + std::to_string(disks) + " N=" +
                   std::to_string(gs.bucket_count()));
}
BENCHMARK(BM_Decluster)
    ->Args({static_cast<int>(Method::kDiskModulo), 16})
    ->Args({static_cast<int>(Method::kFieldwiseXor), 16})
    ->Args({static_cast<int>(Method::kHilbert), 16})
    ->Args({static_cast<int>(Method::kSsp), 16})
    ->Args({static_cast<int>(Method::kMinimax), 16})
    ->Args({static_cast<int>(Method::kMinimax), 32});

void BM_MinimaxScalesQuadratically(benchmark::State& state) {
    // O(N^2) scaling of Algorithm 2 in the number of buckets.
    const auto points = static_cast<std::size_t>(state.range(0));
    Rng rng(8);
    auto ds = make_hotspot2d(rng, points);
    GridStructure gs = ds.build().structure();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            decluster(gs, Method::kMinimax, 16, {.seed = 9}));
    }
    state.SetComplexityN(static_cast<std::int64_t>(gs.bucket_count()));
}
BENCHMARK(BM_MinimaxScalesQuadratically)
    ->Arg(2500)
    ->Arg(5000)
    ->Arg(10000)
    ->Arg(20000)
    ->Arg(40000)
    ->Complexity(benchmark::oNSquared);

}  // namespace
}  // namespace pgf

// Custom main instead of benchmark_main: translates the harness-wide
// `--csv-dir <dir>` convention into google-benchmark's JSON file output
// (<dir>/BENCH_micro.json) so CI can archive machine-readable timings.
int main(int argc, char** argv) {
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc) + 2);
    std::string csv_dir;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv-dir" && i + 1 < argc) {
            csv_dir = argv[++i];
        } else if (arg.rfind("--csv-dir=", 0) == 0) {
            csv_dir = arg.substr(std::string("--csv-dir=").size());
        } else {
            args.push_back(arg);
        }
    }
    if (!csv_dir.empty()) {
        args.push_back("--benchmark_out=" + csv_dir + "/BENCH_micro.json");
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char*> argv2;
    argv2.reserve(args.size());
    for (std::string& a : args) argv2.push_back(a.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

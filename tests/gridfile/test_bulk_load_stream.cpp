// bulk_load_stream golden tests: the streaming loader must produce a grid
// file byte-identical to the in-memory insert loop (bulk_load) over the
// same point sequence — same scales, directory, bucket numbering, cell
// boxes and per-bucket record order — on both backends, for any chunking
// of the stream, including through the paged store's deferred batch
// sessions (where the two can still diverge) and under a pool small enough
// to thrash during the build.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/util/temp_dir.hpp"
#include "pgf/workload/datasets.hpp"

namespace pgf {
namespace {

template <std::size_t D>
std::vector<Point<D>> random_points(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Point<D>> pts(n);
    for (auto& p : pts) {
        for (std::size_t i = 0; i < D; ++i) p[i] = rng.uniform();
    }
    return pts;
}

/// A source that deliberately returns ragged short fills (cycling block
/// sizes 1, 7, 64, 256, 1000) to prove chunking independence.
template <std::size_t D>
class RaggedSource final : public PointSource<D> {
public:
    explicit RaggedSource(const std::vector<Point<D>>& pts) : pts_(pts) {}

    std::size_t next(std::span<Point<D>> out) override {
        static constexpr std::size_t kSizes[] = {1, 7, 64, 256, 1000};
        const std::size_t want =
            std::min(out.size(), kSizes[turn_++ % std::size(kSizes)]);
        std::size_t k = 0;
        while (k < want && pos_ < pts_.size()) out[k++] = pts_[pos_++];
        return k;
    }

private:
    const std::vector<Point<D>>& pts_;
    std::size_t pos_ = 0;
    std::size_t turn_ = 0;
};

/// Structural identity of two grid files over the same engine (mirrors
/// the backend-equivalence comparator, generic over both file types).
template <typename FileA, typename FileB>
void expect_identical(const FileA& a, const FileB& b) {
    constexpr std::size_t D = FileA::kDims;
    ASSERT_EQ(a.record_count(), b.record_count());
    ASSERT_EQ(a.bucket_count(), b.bucket_count());
    ASSERT_EQ(a.refinement_count(), b.refinement_count());
    for (std::size_t i = 0; i < D; ++i) {
        ASSERT_EQ(a.scale(i).splits(), b.scale(i).splits()) << "axis " << i;
    }
    ASSERT_EQ(a.grid_shape(), b.grid_shape());

    CellBox<D> all;
    all.lo.fill(0);
    all.hi = a.grid_shape();
    for_each_cell(all, [&](const std::array<std::uint32_t, D>& cell) {
        ASSERT_EQ(a.directory().at(cell), b.directory().at(cell));
    });

    for (std::uint32_t bid = 0; bid < a.bucket_count(); ++bid) {
        ASSERT_EQ(a.bucket_cells(bid).lo, b.bucket_cells(bid).lo) << bid;
        ASSERT_EQ(a.bucket_cells(bid).hi, b.bucket_cells(bid).hi) << bid;
        const auto& ra = a.bucket_records(bid);
        // Copy: on a paged file the read buffer is invalidated by the
        // next read, and `b` may be the same object type as `a`.
        const auto rb = b.bucket_records(bid);
        ASSERT_EQ(ra.size(), rb.size()) << bid;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].id, rb[k].id) << bid << ":" << k;
            ASSERT_EQ(ra[k].point, rb[k].point) << bid << ":" << k;
        }
    }
}

template <std::size_t D>
Rect<D> unit_domain() {
    Rect<D> domain;
    for (std::size_t d = 0; d < D; ++d) {
        domain.lo[d] = 0.0;
        domain.hi[d] = 1.0;
    }
    return domain;
}

/// In-memory streamed load vs in-memory bulk_load, ragged chunking.
template <std::size_t D>
void run_memory_case(std::size_t n, std::uint64_t seed) {
    const auto pts = random_points<D>(n, seed);
    typename GridFile<D>::Config cfg;
    cfg.bucket_capacity = 32;

    GridFile<D> golden(unit_domain<D>(), cfg);
    golden.bulk_load(pts);

    GridFile<D> streamed(unit_domain<D>(), cfg);
    RaggedSource<D> source(pts);
    const std::uint64_t loaded = streamed.bulk_load_stream(source);
    EXPECT_EQ(loaded, pts.size());
    expect_identical(golden, streamed);
}

TEST(BulkLoadStream, MemoryBackendIdentical2d) { run_memory_case<2>(6000, 51); }
TEST(BulkLoadStream, MemoryBackendIdentical3d) { run_memory_case<3>(6000, 52); }

/// Paged streamed load (batch sessions active, ragged chunks) vs the
/// in-memory insert loop over the same points.
template <std::size_t D>
void expect_paged_stream_matches_inserts(const Rect<D>& domain,
                                         const std::vector<Point<D>>& pts,
                                         std::size_t capacity,
                                         std::size_t pool_pages) {
    util::TempDir dir("pgf-blstream");
    typename PagedGridFile<D>::Config pcfg;
    pcfg.page_size = PagedBucketStore<D>::page_size_for(capacity);
    pcfg.pool_pages = pool_pages;
    PagedGridFile<D> pf(dir.file("paged.db").string(), domain, pcfg);

    typename GridFile<D>::Config mcfg;
    mcfg.bucket_capacity = pf.capacity();
    GridFile<D> golden(domain, mcfg);
    golden.bulk_load(pts);

    RaggedSource<D> source(pts);
    const std::uint64_t loaded = pf.bulk_load_stream(source);
    EXPECT_EQ(loaded, pts.size());
    expect_identical(golden, pf);
}

template <std::size_t D>
void run_paged_case(std::size_t n, std::uint64_t seed,
                    std::size_t pool_pages) {
    expect_paged_stream_matches_inserts(unit_domain<D>(),
                                        random_points<D>(n, seed), 32,
                                        pool_pages);
}

TEST(BulkLoadStream, PagedBackendIdentical2d) {
    run_paged_case<2>(6000, 53, 64);
}

TEST(BulkLoadStream, PagedBackendIdentical3d) {
    run_paged_case<3>(6000, 54, 64);
}

TEST(BulkLoadStream, PagedTinyPoolThrash) {
    // A 4-page pool evicts the batch session's neighbors constantly; the
    // deferred encode must survive arbitrary eviction of the active page.
    run_paged_case<2>(4000, 55, 4);
}

TEST(BulkLoadStream, PagedSkewed3dMatchesInsertLoop) {
    // Clustered around a corner so refinements concentrate and cascade,
    // and the batch session changes bucket under every split.
    Rng rng(72);
    std::vector<Point<3>> pts;
    for (int i = 0; i < 4000; ++i) {
        double x = rng.uniform() * rng.uniform();
        double y = rng.uniform() * rng.uniform();
        pts.push_back({x, y, rng.uniform()});
    }
    expect_paged_stream_matches_inserts(unit_domain<3>(), pts, 4, 64);
}

TEST(BulkLoadStream, PagedHotspotPaperDatasetMatchesInsertLoop) {
    // A bench dataset at realistic scale: merged buckets and the paper's
    // bucket capacity.
    Rng rng(1);
    Dataset<2> ds = make_hotspot2d(rng, 6000);
    expect_paged_stream_matches_inserts(ds.domain, ds.points,
                                        ds.bucket_capacity, 64);
}

TEST(BulkLoadStream, EmptySourceLoadsNothing) {
    std::vector<Point<2>> none;
    VectorPointSource<2> source(none);
    typename GridFile<2>::Config cfg;
    cfg.bucket_capacity = 8;
    GridFile<2> gf(unit_domain<2>(), cfg);
    EXPECT_EQ(gf.bulk_load_stream(source), 0u);
    EXPECT_EQ(gf.record_count(), 0u);
    EXPECT_EQ(gf.bucket_count(), 1u);
}

TEST(BulkLoadStream, SingleBlockSourceMatchesBulkLoad) {
    const auto pts = random_points<2>(200, 56);  // fits one read block
    typename GridFile<2>::Config cfg;
    cfg.bucket_capacity = 16;
    GridFile<2> golden(unit_domain<2>(), cfg);
    golden.bulk_load(pts);
    GridFile<2> streamed(unit_domain<2>(), cfg);
    VectorPointSource<2> source(pts);
    EXPECT_EQ(streamed.bulk_load_stream(source), pts.size());
    expect_identical(golden, streamed);
}

TEST(BulkLoadStream, IdBaseOffsetsAssignedIds) {
    const auto pts = random_points<2>(500, 57);
    typename GridFile<2>::Config cfg;
    cfg.bucket_capacity = 16;
    GridFile<2> golden(unit_domain<2>(), cfg);
    golden.bulk_load(pts, 1000);
    GridFile<2> streamed(unit_domain<2>(), cfg);
    RaggedSource<2> source(pts);
    EXPECT_EQ(streamed.bulk_load_stream(source, 1000), pts.size());
    expect_identical(golden, streamed);
}

/// Queries against a stream-built paged file read through the synced
/// pages, not stale ones (regression guard for the deferred encode).
TEST(BulkLoadStream, PagedQueriesSeeAllRecordsAfterStreamBuild) {
    util::TempDir dir("pgf-blstream-q");
    const auto pts = random_points<2>(3000, 58);
    typename PagedGridFile<2>::Config pcfg;
    pcfg.page_size = PagedBucketStore<2>::page_size_for(32);
    pcfg.pool_pages = 8;
    PagedGridFile<2> pf(dir.file("q.db").string(), unit_domain<2>(), pcfg);
    VectorPointSource<2> source(pts);
    pf.bulk_load_stream(source);
    const Rect<2> everything = unit_domain<2>();
    EXPECT_EQ(pf.query_records(everything).size(), pts.size());
}

/// A run file torn behind an ExtSorter: the merge thread's CheckError
/// reaches the caller of bulk_load_stream, which ends its batch first, so
/// the records accepted before the failure stay and the file stays usable.
TEST(BulkLoadStream, TornRunFileEndsTheBatchAndRethrows) {
    util::TempDir dir("pgf-blstream-torn");
    const auto pts = random_points<2>(40000, 59);
    extsort::ExtSortConfig scfg;
    scfg.chunk_records = 10000;
    scfg.merge_buffer_records = 16;
    scfg.temp_dir = dir.path() / "runs";
    VectorPointSource<2> source(pts);
    extsort::ExtSorter<2> sorter(source, unit_domain<2>(), scfg);
    const auto run = scfg.temp_dir / "run-3.bin";
    ASSERT_TRUE(std::filesystem::exists(run));
    std::filesystem::resize_file(
        run, 9000 * extsort::ExtSorter<2>::kRecordBytes + 5);

    typename PagedGridFile<2>::Config pcfg;
    pcfg.page_size = PagedBucketStore<2>::page_size_for(32);
    pcfg.pool_pages = 8;
    PagedGridFile<2> pf(dir.file("torn.db").string(), unit_domain<2>(),
                        pcfg);
    EXPECT_THROW(pf.bulk_load_stream(sorter), CheckError);
    const std::size_t accepted = pf.record_count();
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, pts.size());
    pf.insert({{0.5, 0.5}}, pts.size());
    EXPECT_EQ(pf.record_count(), accepted + 1);
    EXPECT_EQ(pf.query_records(unit_domain<2>()).size(), accepted + 1);
    const auto report =
        analysis::audit_paged_grid_file(pf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace pgf

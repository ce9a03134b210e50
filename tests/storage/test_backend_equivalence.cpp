// Backend-equivalence golden tests: the in-memory VectorBucketStore and
// the disk-backed PagedBucketStore run the exact same GridFileCore engine,
// so for the same insertion sequence the two backends must produce
// byte-identical access structures — scales, directory, bucket numbering,
// cell boxes AND per-bucket record order. This is the contract that lets
// every layer above (declustering, partitioning, the parallel server)
// switch backends without changing a single reported number.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

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

/// Asserts the full structural identity between the two backends, down to
/// the order of records inside each bucket.
template <std::size_t D>
void expect_identical(const GridFile<D>& gf, const PagedGridFile<D>& pf) {
    ASSERT_EQ(gf.record_count(), pf.record_count());
    ASSERT_EQ(gf.bucket_count(), pf.bucket_count());
    ASSERT_EQ(gf.refinement_count(), pf.refinement_count());

    for (std::size_t i = 0; i < D; ++i) {
        ASSERT_EQ(gf.scale(i).splits(), pf.scale(i).splits()) << "axis " << i;
    }
    ASSERT_EQ(gf.grid_shape(), pf.grid_shape());

    CellBox<D> all;
    all.lo.fill(0);
    all.hi = gf.grid_shape();
    for_each_cell(all, [&](const std::array<std::uint32_t, D>& cell) {
        ASSERT_EQ(gf.directory().at(cell), pf.directory().at(cell));
    });

    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        ASSERT_EQ(gf.bucket_cells(b).lo, pf.bucket_cells(b).lo) << b;
        ASSERT_EQ(gf.bucket_cells(b).hi, pf.bucket_cells(b).hi) << b;
        const auto& mem = gf.bucket_records(b);
        const auto& paged = pf.bucket_records(b);
        ASSERT_EQ(mem.size(), paged.size()) << b;
        for (std::size_t k = 0; k < mem.size(); ++k) {
            ASSERT_EQ(mem[k].id, paged[k].id) << b << ":" << k;
            ASSERT_EQ(mem[k].point, paged[k].point) << b << ":" << k;
        }
    }
}

template <std::size_t D>
void run_case(bool bulk, std::size_t n, std::uint64_t seed) {
    const auto path = test::unique_temp_path("pgf_backend_equiv");
    Rect<D> domain;
    for (std::size_t d = 0; d < D; ++d) {
        domain.lo[d] = 0.0;
        domain.hi[d] = 1.0;
    }

    typename PagedGridFile<D>::Config pcfg;
    pcfg.page_size = PagedBucketStore<D>::page_size_for(32);
    pcfg.pool_pages = 8;                    // small pool: loads thrash it
    PagedGridFile<D> pf(path.string(), domain, pcfg);

    typename GridFile<D>::Config mcfg;
    mcfg.bucket_capacity = pf.capacity();
    GridFile<D> gf(domain, mcfg);

    const auto pts = random_points<D>(n, seed);
    if (bulk) {
        gf.bulk_load(pts);
        pf.bulk_load(pts);
    } else {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            gf.insert(pts[i], i);
            pf.insert(pts[i], i);
        }
    }
    expect_identical(gf, pf);
    std::filesystem::remove(path);
}

TEST(BackendEquivalence, Insert2dMidpoint) { run_case<2>(false, 3000, 41); }

TEST(BackendEquivalence, Insert3dMidpoint) { run_case<3>(false, 4000, 43); }

TEST(BackendEquivalence, BulkLoad2dMidpoint) { run_case<2>(true, 5000, 45); }

TEST(BackendEquivalence, BulkLoad3dMidpoint) { run_case<3>(true, 5000, 46); }

TEST(BackendEquivalence, InsertThenEraseStaysIdentical) {
    const auto path = test::unique_temp_path("pgf_backend_equiv");
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    PagedGridFile<2>::Config pcfg;
    pcfg.page_size = 256;
    PagedGridFile<2> pf(path.string(), domain, pcfg);
    GridFile<2>::Config mcfg;
    mcfg.bucket_capacity = pf.capacity();
    GridFile<2> gf(domain, mcfg);

    const auto pts = random_points<2>(1500, 47);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        gf.insert(pts[i], i);
        pf.insert(pts[i], i);
    }
    for (std::size_t i = 0; i < pts.size(); i += 3) {
        ASSERT_TRUE(gf.erase(pts[i], i));
        ASSERT_TRUE(pf.erase(pts[i], i));
    }
    expect_identical(gf, pf);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace pgf

#include "pgf/gridfile/grid_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

Rect<2> unit_square() { return Rect<2>{{{0.0, 0.0}}, {{1.0, 1.0}}}; }

GridFile<2>::Config small_buckets(std::size_t capacity = 4) {
    GridFile<2>::Config c;
    c.bucket_capacity = capacity;
    return c;
}

/// Brute-force range query over a record list for cross-checking.
std::vector<std::uint64_t> brute_force(const std::vector<Point<2>>& pts,
                                       const Rect<2>& q) {
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (q.contains(pts[i])) ids.push_back(i);
    }
    return ids;
}

std::vector<std::uint64_t> sorted_ids(const std::vector<GridRecord<2>>& recs) {
    std::vector<std::uint64_t> ids;
    ids.reserve(recs.size());
    for (const auto& r : recs) ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

TEST(GridFile, EmptyFileHasOneBucket) {
    GridFile<2> gf(unit_square(), small_buckets());
    EXPECT_EQ(gf.bucket_count(), 1u);
    EXPECT_EQ(gf.record_count(), 0u);
    EXPECT_EQ(gf.grid_shape(), (std::array<std::uint32_t, 2>{1, 1}));
    EXPECT_EQ(gf.merged_bucket_count(), 0u);
}

TEST(GridFile, InsertWithinCapacityNoSplit) {
    GridFile<2> gf(unit_square(), small_buckets(4));
    gf.insert({{0.1, 0.1}}, 0);
    gf.insert({{0.9, 0.9}}, 1);
    EXPECT_EQ(gf.bucket_count(), 1u);
    EXPECT_EQ(gf.record_count(), 2u);
}

TEST(GridFile, OverflowTriggersSplit) {
    GridFile<2> gf(unit_square(), small_buckets(2));
    gf.insert({{0.1, 0.5}}, 0);
    gf.insert({{0.9, 0.5}}, 1);
    gf.insert({{0.5, 0.1}}, 2);  // third record overflows capacity 2
    EXPECT_GE(gf.bucket_count(), 2u);
    EXPECT_EQ(gf.record_count(), 3u);
    // No bucket exceeds capacity after the split.
    EXPECT_EQ(gf.oversized_bucket_count(), 0u);
}

TEST(GridFile, RejectsTinyCapacity) {
    GridFile<2>::Config c;
    c.bucket_capacity = 1;
    EXPECT_THROW(GridFile<2>(unit_square(), c), CheckError);
}

TEST(GridFile, BucketCapacityInvariantHoldsUnderLoad) {
    GridFile<2> gf(unit_square(), small_buckets(8));
    Rng rng(17);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    EXPECT_EQ(gf.oversized_bucket_count(), 0u);
    std::size_t total = 0;
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        EXPECT_LE(gf.bucket(b).records.size(), 8u);
        total += gf.bucket(b).records.size();
    }
    EXPECT_EQ(total, 2000u);
}

TEST(GridFile, EveryRecordLandsInItsBucketRegion) {
    GridFile<2> gf(unit_square(), small_buckets(6));
    Rng rng(23);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        Rect<2> region = gf.bucket_region(b);
        for (const auto& rec : gf.bucket(b).records) {
            EXPECT_TRUE(region.contains(rec.point))
                << "bucket " << b << " record " << rec.id;
        }
    }
}

TEST(GridFile, DirectoryCellsAgreeWithBucketBoxes) {
    GridFile<2> gf(unit_square(), small_buckets(4));
    Rng rng(31);
    for (std::uint64_t i = 0; i < 500; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    const auto shape = gf.grid_shape();
    std::uint64_t covered = 0;
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        const CellBox<2>& box = gf.bucket(b).cells;
        for_each_cell(box, [&](const std::array<std::uint32_t, 2>& cell) {
            EXPECT_EQ(gf.directory().at(cell), b);
        });
        covered += box.cell_count();
    }
    EXPECT_EQ(covered, static_cast<std::uint64_t>(shape[0]) * shape[1]);
}

TEST(GridFile, RangeQueryMatchesBruteForce) {
    Rng rng(37);
    std::vector<Point<2>> pts;
    GridFile<2> gf(unit_square(), small_buckets(5));
    for (std::uint64_t i = 0; i < 1500; ++i) {
        Point<2> p{{rng.uniform(), rng.uniform()}};
        pts.push_back(p);
        gf.insert(p, i);
    }
    for (int t = 0; t < 200; ++t) {
        double x0 = rng.uniform(), y0 = rng.uniform();
        double w = rng.uniform(0.01, 0.4), h = rng.uniform(0.01, 0.4);
        Rect<2> q{{{x0, y0}}, {{x0 + w, y0 + h}}};
        auto expected = brute_force(pts, q);
        auto got = sorted_ids(gf.query_records(q));
        ASSERT_EQ(got, expected) << "query " << t;
    }
}

TEST(GridFile, QueryBucketsSupersetOfRecordBuckets) {
    GridFile<2> gf(unit_square(), small_buckets(4));
    Rng rng(41);
    for (std::uint64_t i = 0; i < 800; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    Rect<2> q{{{0.2, 0.2}}, {{0.5, 0.6}}};
    auto buckets = gf.query_buckets(q);
    std::set<std::uint32_t> bucket_set(buckets.begin(), buckets.end());
    // Buckets are reported at most once.
    EXPECT_EQ(bucket_set.size(), buckets.size());
    // Every record in the result lives in a reported bucket region.
    for (const auto& rec : gf.query_records(q)) {
        auto cell = gf.locate_cell(rec.point);
        EXPECT_TRUE(bucket_set.count(gf.directory().at(cell)) > 0);
    }
}

TEST(GridFile, QueryOutsideDomainIsEmpty) {
    GridFile<2> gf(unit_square(), small_buckets());
    gf.insert({{0.5, 0.5}}, 0);
    Rect<2> off{{{2.0, 2.0}}, {{3.0, 3.0}}};
    EXPECT_TRUE(gf.query_buckets(off).empty());
    EXPECT_TRUE(gf.query_records(off).empty());
    Rect<2> degenerate{{{0.5, 0.5}}, {{0.5, 0.9}}};
    EXPECT_TRUE(gf.query_buckets(degenerate).empty());
}

TEST(GridFile, QueryOverhangingDomainIsClipped) {
    GridFile<2> gf(unit_square(), small_buckets());
    gf.insert({{0.05, 0.05}}, 0);
    gf.insert({{0.95, 0.95}}, 1);
    Rect<2> q{{{-1.0, -1.0}}, {{0.2, 0.2}}};
    auto recs = gf.query_records(q);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].id, 0u);
}

TEST(GridFile, WholeDomainQueryReturnsEverything) {
    GridFile<2> gf(unit_square(), small_buckets(3));
    Rng rng(43);
    for (std::uint64_t i = 0; i < 300; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    Rect<2> all{{{0.0, 0.0}}, {{1.0, 1.0}}};
    EXPECT_EQ(gf.query_records(all).size(), 300u);
    EXPECT_EQ(gf.query_buckets(all).size(), gf.bucket_count());
}

TEST(GridFile, OutOfDomainInsertClampsToBoundaryCell) {
    GridFile<2> gf(unit_square(), small_buckets());
    gf.insert({{5.0, -2.0}}, 99);
    EXPECT_EQ(gf.record_count(), 1u);
    // Clamped record is findable through a boundary query on its cell.
    auto cell = gf.locate_cell({{5.0, -2.0}});
    EXPECT_EQ(cell[0], gf.grid_shape()[0] - 1);
    EXPECT_EQ(cell[1], 0u);
}

TEST(GridFile, EraseRemovesExactRecord) {
    GridFile<2> gf(unit_square(), small_buckets());
    Point<2> p{{0.3, 0.3}};
    gf.insert(p, 1);
    gf.insert(p, 2);
    EXPECT_TRUE(gf.erase(p, 1));
    EXPECT_EQ(gf.record_count(), 1u);
    EXPECT_FALSE(gf.erase(p, 1));  // already gone
    EXPECT_FALSE(gf.erase({{0.9, 0.9}}, 2));  // wrong location
    EXPECT_TRUE(gf.erase(p, 2));
    EXPECT_EQ(gf.record_count(), 0u);
}

TEST(GridFile, DuplicatePointsStayRetrievable) {
    GridFile<2> gf(unit_square(), small_buckets(2));
    Point<2> p{{0.25, 0.75}};
    for (std::uint64_t i = 0; i < 20; ++i) gf.insert(p, i);
    Rect<2> q{{{0.2, 0.7}}, {{0.3, 0.8}}};
    EXPECT_EQ(gf.query_records(q).size(), 20u);
    // Identical points cannot be separated: the file must cope via an
    // oversized bucket rather than splitting forever.
    EXPECT_GE(gf.oversized_bucket_count(), 1u);
}

TEST(GridFile, SkewedDataProducesMergedBuckets) {
    // A tight cluster forces fine grid refinement near the cluster; the
    // far-away sparse region keeps coarse multi-cell buckets.
    GridFile<2> gf(unit_square(), small_buckets(4));
    Rng rng(47);
    for (std::uint64_t i = 0; i < 400; ++i) {
        gf.insert({{0.1 + 0.05 * rng.uniform(), 0.1 + 0.05 * rng.uniform()}},
                  i);
    }
    gf.insert({{0.9, 0.9}}, 1000);
    EXPECT_GT(gf.merged_bucket_count(), 0u);
}

TEST(GridFile, UniformDataProducesFewMergedBuckets) {
    GridFile<2> gf(unit_square(), small_buckets(8));
    Rng rng(53);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    // Merged buckets are those still awaiting a split mid-cascade; for
    // uniform data they must stay a clear minority of cells... but at this
    // tiny capacity the refinement cascade is only half done, so simply
    // bound the fraction away from "everything merged". The paper-scale
    // assertion (4 of 252 for uniform.2d vs 169 of 241 for hot.2d) lives in
    // workload/test_datasets.cpp with the real generator parameters.
    EXPECT_LT(gf.merged_bucket_count(), gf.bucket_count());
}

TEST(GridFile, RestoreRejectsBucketBoxesThatDoNotTileTheGrid) {
    // A 2x1 grid (x split at 0.5). The two one-cell buckets tile it; each
    // bad case fails one of the directory retile's three checks.
    auto restore = [](std::vector<CellBox<2>> boxes) {
        LinearScale sx(0.0, 1.0), sy(0.0, 1.0);
        EXPECT_TRUE(sx.insert_split(0.5, nullptr));
        std::vector<GridFile<2>::Bucket> buckets;
        for (const CellBox<2>& box : boxes) {
            GridFile<2>::Bucket b;
            b.cells = box;
            buckets.push_back(std::move(b));
        }
        return GridFile<2>::restore(unit_square(), {}, {sx, sy},
                                    std::move(buckets));
    };
    EXPECT_EQ(restore({{{0, 0}, {1, 1}}, {{1, 0}, {2, 1}}}).bucket_count(),
              2u);

    struct Case {
        const char* name;
        std::vector<CellBox<2>> boxes;
    };
    const std::vector<Case> cases = {
        {"box outside the grid", {{{0, 0}, {3, 1}}}},
        {"overlapping boxes", {{{0, 0}, {2, 1}}, {{1, 0}, {2, 1}}}},
        {"boxes leave a gap", {{{0, 0}, {1, 1}}}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_THROW(restore(c.boxes), CheckError);
    }
}

TEST(GridFile, ThreeDimensionalRoundTrip) {
    Rect<3> cube{{{0.0, 0.0, 0.0}}, {{1.0, 1.0, 1.0}}};
    GridFile<3>::Config cfg;
    cfg.bucket_capacity = 6;
    GridFile<3> gf(cube, cfg);
    Rng rng(61);
    std::vector<Point<3>> pts;
    for (std::uint64_t i = 0; i < 600; ++i) {
        Point<3> p{{rng.uniform(), rng.uniform(), rng.uniform()}};
        pts.push_back(p);
        gf.insert(p, i);
    }
    Rect<3> q{{{0.25, 0.25, 0.25}}, {{0.75, 0.75, 0.75}}};
    std::size_t expected = 0;
    for (const auto& p : pts) expected += q.contains(p) ? 1u : 0u;
    EXPECT_EQ(gf.query_records(q).size(), expected);
}

TEST(GridFile, OneDimensionalDegenerateCase) {
    Rect<1> line{{{0.0}}, {{10.0}}};
    GridFile<1>::Config cfg;
    cfg.bucket_capacity = 2;
    GridFile<1> gf(line, cfg);
    for (std::uint64_t i = 0; i < 20; ++i) {
        gf.insert({{static_cast<double>(i) * 0.5}}, i);
    }
    Rect<1> q{{{2.0}}, {{4.0}}};
    EXPECT_EQ(gf.query_records(q).size(), 4u);  // 2.0, 2.5, 3.0, 3.5
}

TEST(GridFile, StructureExportIsConsistent) {
    GridFile<2> gf(unit_square(), small_buckets(4));
    Rng rng(67);
    for (std::uint64_t i = 0; i < 700; ++i) {
        gf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    GridStructure gs = gf.structure();
    EXPECT_NO_THROW(gs.validate());
    EXPECT_EQ(gs.bucket_count(), gf.bucket_count());
    EXPECT_EQ(gs.merged_bucket_count(), gf.merged_bucket_count());
    EXPECT_EQ(gs.shape[0], gf.grid_shape()[0]);
    EXPECT_EQ(gs.shape[1], gf.grid_shape()[1]);
    std::size_t records = 0;
    for (const auto& b : gs.buckets) records += b.record_count;
    EXPECT_EQ(records, gf.record_count());
}

TEST(GridFile, BulkLoadAssignsSequentialIds) {
    GridFile<2> gf(unit_square(), small_buckets());
    std::vector<Point<2>> pts{{{0.1, 0.1}}, {{0.2, 0.2}}, {{0.3, 0.3}}};
    gf.bulk_load(pts, 100);
    Rect<2> all{{{0.0, 0.0}}, {{1.0, 1.0}}};
    auto ids = sorted_ids(gf.query_records(all));
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{100, 101, 102}));
}

TEST(GridFile, QueryAfterManySplitsStillExact) {
    // Heavy load with a mix of clusters: stresses directory expansion,
    // cell-box shifting, and bucket splits together.
    GridFile<2> gf(unit_square(), small_buckets(3));
    Rng rng(71);
    std::vector<Point<2>> pts;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        Point<2> p;
        if (i % 3 == 0) {
            p = {{rng.normal(0.3, 0.05), rng.normal(0.7, 0.05)}};
            p[0] = std::clamp(p[0], 0.0, 0.999);
            p[1] = std::clamp(p[1], 0.0, 0.999);
        } else {
            p = {{rng.uniform(), rng.uniform()}};
        }
        pts.push_back(p);
        gf.insert(p, i);
    }
    for (int t = 0; t < 100; ++t) {
        double x0 = rng.uniform(0.0, 0.8), y0 = rng.uniform(0.0, 0.8);
        Rect<2> q{{{x0, y0}}, {{x0 + 0.15, y0 + 0.15}}};
        ASSERT_EQ(sorted_ids(gf.query_records(q)), brute_force(pts, q));
    }
}

}  // namespace
}  // namespace pgf

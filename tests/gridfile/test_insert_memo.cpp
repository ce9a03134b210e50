// The located-cell memo of GridFileCore::insert: a point strictly inside
// the last located cell (lo <= p < hi on every axis) skips the scale
// searches and the directory read; everything else is located afresh. One
// table-driven insert sequence runs on both stores, and after every insert
// the deep audit re-derives each record's cell through the scales, so a
// memo that handed out a stale bucket shows as a misplaced record.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "pgf/analysis/grid_file_audit.hpp"
#include "pgf/analysis/paged_audit.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/temp_dir.hpp"

namespace pgf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kCapacity = 8;

const Rect<2> kDomain{{{0.0, 0.0}}, {{1.0, 1.0}}};

struct Step {
    const char* what;
    Point<2> p;
    bool hit;  ///< memo_covers(p) right before the insert
};

template <typename File, typename Audit>
void run_steps(File& f, const std::vector<Step>& steps, Audit audit) {
    for (const Step& s : steps) {
        EXPECT_EQ(f.memo_covers(s.p), s.hit) << s.what;
        const std::size_t before = f.record_count();
        f.insert(s.p, before);
        ASSERT_EQ(f.record_count(), before + 1) << s.what;
        const auto report = audit(f);
        ASSERT_TRUE(report.ok()) << s.what << "\n" << report.summary();
    }
}

/// The whole sequence: the one-cell file's edges, clamped and NaN
/// coordinates, the overflow that forgets the memo, then points that
/// alternate across the split line that overflow drew.
template <typename File, typename Audit>
void run_memo_table(File& f, Audit audit) {
    run_steps(f,
              {
                  {"first insert: nothing located yet", {{0.25, 0.25}}, false},
                  {"the cell's lower edge (the domain's corner)",
                   {{0.0, 0.0}},
                   true},
                  {"inside, on the lower edge of axis 1", {{0.75, 0.0}}, true},
                  {"the domain's upper bound clamps into the last interval",
                   {{1.0, 0.5}},
                   false},
                  {"inside again", {{0.999, 0.999}}, true},
                  {"below the domain", {{-0.5, 0.5}}, false},
                  {"above the domain", {{0.25, 2.0}}, false},
                  {"-inf", {{-kInf, 0.75}}, false},
                  {"NaN, which overflows the bucket", {{kNaN, 0.25}}, false},
              },
              audit);
    // One refinement at 0.5 on either axis leaves 4 and 5 records per
    // half, so the six inserts below overflow neither.
    ASSERT_EQ(f.record_count(), kCapacity + 1);
    ASSERT_EQ(f.bucket_count(), 2u);

    // The overflow drew one split line: find its axis and coordinate.
    const std::size_t axis = f.scale(0).splits().size() == 1 ? 0 : 1;
    ASSERT_EQ(f.scale(axis).splits().size(), 1u);
    ASSERT_EQ(f.scale(1 - axis).splits().size(), 0u);
    const double line = f.scale(axis).splits()[0];
    const auto at = [&](double along, double across) {
        Point<2> p;
        p[axis] = along;
        p[1 - axis] = across;
        return p;
    };
    const double below = std::nextafter(line, 0.0);
    run_steps(f,
              {
                  {"after the split: the memo was forgotten",
                   at(0.6 * line, 0.4),
                   false},
                  {"just below the fresh line: same cell", at(below, 0.3),
                   true},
                  {"on the line: the upper cell's lower edge", at(line, 0.3),
                   false},
                  {"back below the line", at(below, 0.3), false},
                  {"on the line again", at(line, 0.3), false},
                  {"the upper cell, inside", at(0.5 * (line + 1.0), 0.3),
                   true},
              },
              audit);
    EXPECT_EQ(f.bucket_count(), 2u);
}

TEST(InsertMemo, TableOnTheMemoryStore) {
    GridFile<2> gf(kDomain, {.bucket_capacity = kCapacity});
    run_memo_table(gf, [](const GridFile<2>& f) {
        return analysis::audit_grid_file(f, analysis::ValidationLevel::kDeep);
    });
}

TEST(InsertMemo, TableOnThePagedStore) {
    util::TempDir dir("pgf-insert-memo");
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(kCapacity);
    cfg.pool_pages = 4;
    PagedGridFile<2> pf(dir.file("memo.db").string(), kDomain, cfg);
    ASSERT_EQ(pf.bucket_capacity(), kCapacity);
    run_memo_table(pf, [](const PagedGridFile<2>& f) {
        return analysis::audit_paged_grid_file(
            f, analysis::ValidationLevel::kDeep);
    });
}

TEST(InsertMemo, BothStoresBuildTheSameFile) {
    // The memo only skips lookups: a sorted stream with long same-cell
    // runs builds the file the fresh-lookup reference describes.
    std::vector<Point<2>> pts;
    for (std::size_t i = 0; i < 4000; ++i) {
        const double t = static_cast<double>(i) / 4000.0;
        pts.push_back({{t, t * t}});
    }
    GridFile<2> gf(kDomain, {.bucket_capacity = kCapacity});
    util::TempDir dir("pgf-insert-memo-same");
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(kCapacity);
    cfg.pool_pages = 16;
    PagedGridFile<2> pf(dir.file("same.db").string(), kDomain, cfg);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        hits += gf.memo_covers(pts[i]) ? 1u : 0u;
        EXPECT_EQ(gf.memo_covers(pts[i]), pf.memo_covers(pts[i])) << i;
        gf.insert(pts[i], i);
        pf.insert(pts[i], i);
    }
    EXPECT_GT(hits, pts.size() / 4);
    ASSERT_EQ(gf.bucket_count(), pf.bucket_count());
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        ASSERT_EQ(gf.bucket_cells(b), pf.bucket_cells(b)) << b;
    }
    const auto mem =
        analysis::audit_grid_file(gf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(mem.ok()) << mem.summary();
    const auto paged =
        analysis::audit_paged_grid_file(pf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(paged.ok()) << paged.summary();
}

}  // namespace
}  // namespace pgf

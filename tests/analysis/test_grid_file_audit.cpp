// Tests for the live-GridFile audit, including corrupted files assembled
// by hand that the directory retile's tiling checks accept.
#include "pgf/analysis/grid_file_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pgf/gridfile/grid_file.hpp"
#include "pgf/util/rng.hpp"

namespace pgf::analysis {
namespace {

bool has_finding(const ValidationReport& r, const std::string& invariant) {
    return std::any_of(
        r.findings.begin(), r.findings.end(),
        [&](const Finding& f) { return f.invariant == invariant; });
}

TEST(AuditGridFile, GrownFilePassesDeep) {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    GridFile<2>::Config cfg;
    cfg.bucket_capacity = 6;
    GridFile<2> gf(domain, cfg);
    Rng rng(11);
    for (std::uint64_t id = 0; id < 1500; ++id) {
        gf.insert(Point<2>{{rng.uniform(), rng.uniform()}}, id);
    }
    ValidationReport r = audit_grid_file(gf, ValidationLevel::kDeep);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_GT(r.checks_run, gf.bucket_count());
}

/// A grid file assembled by hand through the engine's protected surface:
/// the way to build states the engine never produces itself (a misplaced
/// record, an oversized merged bucket), which only the audit can catch.
/// Axis i of the scales splits at `splits[i]`; bucket k covers `boxes[k]`
/// and holds `records[k]`; retile() checks the tiling.
template <std::size_t D>
class HandBuiltGridFile : public GridFile<D> {
public:
    HandBuiltGridFile(const Rect<D>& domain, std::size_t capacity,
                      const std::vector<std::vector<double>>& splits,
                      const std::vector<CellBox<D>>& boxes,
                      const std::vector<std::vector<GridRecord<D>>>& records)
        : GridFile<D>(domain, {capacity}) {
        for (std::size_t i = 0; i < D; ++i) {
            for (double x : splits[i]) {
                EXPECT_TRUE(this->scales_[i].insert_split(x, nullptr));
            }
        }
        for (std::uint32_t b = 0; b < boxes.size(); ++b) {
            if (b > 0) this->store_.create_bucket(boxes[b], 0);
            this->store_.cells(b) = boxes[b];
            this->store_.edit(b) = records[b];
        }
        this->retile();
    }
};

/// A 1-D two-cell grid file: domain [0, 1), split at 0.5, one bucket per
/// cell. `left`/`right` are the record coordinates placed in the
/// respective buckets — pass a coordinate on the wrong side to corrupt.
HandBuiltGridFile<1> two_cell_file(std::vector<double> left,
                                   std::vector<double> right) {
    Rect<1> domain{{{0.0}}, {{1.0}}};
    CellBox<1> b0, b1;
    b0.lo = {0};
    b0.hi = {1};
    b1.lo = {1};
    b1.hi = {2};
    std::vector<GridRecord<1>> r0, r1;
    std::uint64_t id = 0;
    for (double x : left) r0.push_back({Point<1>{{x}}, id++});
    for (double x : right) r1.push_back({Point<1>{{x}}, id++});
    return HandBuiltGridFile<1>(domain, 4, {{0.5}}, {b0, b1}, {r0, r1});
}

TEST(AuditGridFile, RestoredCleanFilePasses) {
    HandBuiltGridFile<1> gf = two_cell_file({0.1, 0.3}, {0.6, 0.9});
    ValidationReport r = audit_grid_file(gf, ValidationLevel::kDeep);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(AuditGridFile, DeepDetectsMisplacedRecord) {
    // 0.7 sits in the right cell but is stored in the left bucket; the
    // retile's tiling checks cannot see this, only the per-record pass can.
    HandBuiltGridFile<1> gf = two_cell_file({0.1, 0.7}, {0.6, 0.9});
    EXPECT_TRUE(audit_grid_file(gf, ValidationLevel::kStandard).ok());
    ValidationReport r = audit_grid_file(gf, ValidationLevel::kDeep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(has_finding(r, "gridfile.record.misplaced")) << r.summary();
}

TEST(AuditGridFile, FlagsOverCapacityMergedBucket) {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    // One merged bucket spans both cells of an x split and exceeds
    // capacity: the grid file contract says it should have been split
    // along the grid line.
    CellBox<2> merged;
    merged.lo = {0, 0};
    merged.hi = {2, 1};
    std::vector<GridRecord<2>> records;
    Rng rng(3);
    for (std::uint64_t id = 0; id < 5; ++id) {
        records.push_back({Point<2>{{rng.uniform(), rng.uniform()}}, id});
    }
    HandBuiltGridFile<2> gf(domain, 3, {{0.5}, {}}, {merged}, {records});
    ValidationReport r = audit_grid_file(gf, ValidationLevel::kFast);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(has_finding(r, "gridfile.bucket.oversized_merged"))
        << r.summary();
}

TEST(AuditGridFile, LevelsAreMonotonicInWork) {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    GridFile<2> gf(domain);
    Rng rng(5);
    for (std::uint64_t id = 0; id < 800; ++id) {
        gf.insert(Point<2>{{rng.uniform(), rng.uniform()}}, id);
    }
    const std::size_t fast =
        audit_grid_file(gf, ValidationLevel::kFast).checks_run;
    const std::size_t standard =
        audit_grid_file(gf, ValidationLevel::kStandard).checks_run;
    const std::size_t deep =
        audit_grid_file(gf, ValidationLevel::kDeep).checks_run;
    EXPECT_LT(fast, standard);
    EXPECT_LT(standard, deep);
}

}  // namespace
}  // namespace pgf::analysis

// Tests for the page-level audit of the disk-backed grid file. The clean
// cases double as an end-to-end check of the paged backend's bookkeeping;
// the corruption cases stomp a page header through the file's own buffer
// pool, or a byte of a page on disk, and expect a finding, not a throw.
#include "pgf/analysis/paged_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "pgf/util/rng.hpp"
#include "../storage/temp_path.hpp"

namespace pgf::analysis {
namespace {

bool has_finding(const ValidationReport& r, const std::string& invariant) {
    return std::any_of(
        r.findings.begin(), r.findings.end(),
        [&](const Finding& f) { return f.invariant == invariant; });
}

class PagedAuditTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_paged_audit");
    Rect<2> domain_{{{0.0, 0.0}}, {{1.0, 1.0}}};

    void TearDown() override { std::filesystem::remove(path_); }

    PagedGridFile<2> make(std::size_t pool_pages = 16) {
        PagedGridFile<2>::Config cfg;
        cfg.page_size = 256;
        cfg.pool_pages = pool_pages;
        return PagedGridFile<2>(path_.string(), domain_, cfg);
    }

    void grow(PagedGridFile<2>& pf, std::size_t n, std::uint64_t seed) {
        Rng rng(seed);
        for (std::uint64_t id = 0; id < n; ++id) {
            pf.insert(Point<2>{{rng.uniform(), rng.uniform()}}, id);
        }
    }
};

TEST_F(PagedAuditTest, GrownFilePassesDeep) {
    auto pf = make();
    grow(pf, 2000, 17);
    pf.flush();
    ValidationReport r = audit_paged_grid_file(pf, ValidationLevel::kDeep);
    EXPECT_TRUE(r.ok()) << r.summary();
    // Deep runs the generic audit plus page ownership, scale
    // reconstruction, per-page header and roundtrip checks.
    EXPECT_GT(r.checks_run, 4 * pf.bucket_count());
}

TEST_F(PagedAuditTest, PassesWithThrashingPool) {
    // Two frames for dozens of buckets: every audit pass re-reads pages
    // from disk, so the checks exercise real page I/O, not cached state.
    auto pf = make(/*pool_pages=*/2);
    grow(pf, 1500, 19);
    ValidationReport r = audit_paged_grid_file(pf, ValidationLevel::kDeep);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST_F(PagedAuditTest, LevelsAreMonotonicInWork) {
    auto pf = make();
    grow(pf, 1200, 23);
    const std::size_t fast =
        audit_paged_grid_file(pf, ValidationLevel::kFast).checks_run;
    const std::size_t standard =
        audit_paged_grid_file(pf, ValidationLevel::kStandard).checks_run;
    const std::size_t deep =
        audit_paged_grid_file(pf, ValidationLevel::kDeep).checks_run;
    EXPECT_LT(fast, standard);
    EXPECT_LT(standard, deep);
}

TEST_F(PagedAuditTest, FlagsLeakedPagePin) {
    auto pf = make();
    grow(pf, 800, 31);
    {
        // A PageRef held across the audit models a pin leak: every engine
        // operation scopes its pins, so a quiescent file must report none.
        auto leaked = pf.pool().fetch(pf.bucket_page(0));
        ValidationReport r =
            audit_paged_grid_file(pf, ValidationLevel::kFast);
        EXPECT_FALSE(r.ok());
        EXPECT_TRUE(has_finding(r, "paged.pool.pins")) << r.summary();
    }
    // Pin released: the same audit is clean again.
    ValidationReport clean = audit_paged_grid_file(pf, ValidationLevel::kFast);
    EXPECT_TRUE(clean.ok()) << clean.summary();
}

TEST_F(PagedAuditTest, StandardFlagsCorruptPageHeader) {
    auto pf = make();
    grow(pf, 800, 29);
    ASSERT_GT(pf.bucket_count(), 1u);
    {
        // Stomp bucket 0's on-page record count through the file's own
        // pool, the same channel the audit reads from.
        auto page = pf.pool().fetch(pf.bucket_page(0));
        page.data()[0] = std::byte{0xFF};
        page.mark_dirty();
    }
    ValidationReport r =
        audit_paged_grid_file(pf, ValidationLevel::kStandard);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(has_finding(r, "paged.page.header")) << r.summary();
    EXPECT_TRUE(has_finding(r, "paged.page.capacity")) << r.summary();
}

TEST_F(PagedAuditTest, DeepReportsAPageCorruptOnDiskAsAFinding) {
    std::uint32_t victim = 0;
    {
        auto pf = make();
        grow(pf, 800, 37);
        pf.flush();
        victim = static_cast<std::uint32_t>(pf.bucket_count() / 2);
        ASSERT_EQ(pf.bucket_page(victim), victim);
    }
    {
        // Flip one byte in the middle of the victim's page: superblock
        // (24 bytes) + victim pages of 256 bytes + 100.
        const auto at = 24 + static_cast<std::streamoff>(victim) * 256 + 100;
        std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(at);
        const int byte = f.get();
        f.seekp(at);
        f.put(static_cast<char>(byte ^ 0xff));
    }
    PagedGridFile<2> pf(PagedGridFile<2>::OpenTag{}, path_.string(), 4);
    ValidationReport r;
    ASSERT_NO_THROW(r = audit_paged_grid_file(pf, ValidationLevel::kDeep));
    ASSERT_EQ(r.findings.size(), 1u) << r.summary();
    EXPECT_EQ(r.findings[0].invariant, "paged.page.checksum");
    EXPECT_EQ(r.findings[0].detail.rfind(
                  "bucket " + std::to_string(victim) + " page", 0),
              0u)
        << r.findings[0].detail;
}

TEST_F(PagedAuditTest, DeepAuditFetchesEachPageOnce) {
    {
        auto pf = make();
        grow(pf, 1500, 41);
        pf.flush();
    }
    // A cold pool far smaller than the file: every page misses, once.
    PagedGridFile<2> pf(PagedGridFile<2>::OpenTag{}, path_.string(), 4);
    ASSERT_GT(pf.bucket_count(), 4u);
    ValidationReport r = audit_paged_grid_file(pf, ValidationLevel::kDeep);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(pf.pool().stats().misses, pf.bucket_count());
    EXPECT_EQ(pf.pool().stats().hits, 0u);
}

}  // namespace
}  // namespace pgf::analysis

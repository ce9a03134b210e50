// The paged grid file reopens from the catalog its flush() writes after
// the last page. A reopened file equals its state before the flush and its
// in-memory twin, answers every query identically and stays mutable; a
// flush that changes nothing writes nothing; and every missing, stale,
// damaged or structurally wrong catalog is a typed error (CheckError).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

using Paged2 = PagedGridFile<2>;

std::vector<char> file_bytes(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/// Everything a reopen must restore, in comparable form.
template <std::size_t D>
struct State {
    std::vector<std::vector<double>> splits;
    std::vector<std::uint32_t> directory;
    std::vector<CellBox<D>> boxes;
    std::vector<std::size_t> counts;
    std::vector<std::vector<std::uint64_t>> ids;
    std::vector<std::vector<Point<D>>> points;
    std::size_t records = 0;
    std::uint64_t refinements = 0;

    template <typename GF>
    static State of(const GF& gf) {
        State s;
        for (std::size_t i = 0; i < D; ++i) {
            s.splits.push_back(gf.scale(i).splits());
        }
        CellBox<D> all;
        for (std::size_t i = 0; i < D; ++i) all.hi[i] = gf.grid_shape()[i];
        for_each_cell(all, [&](const std::array<std::uint32_t, D>& cell) {
            s.directory.push_back(gf.directory().at(cell));
        });
        for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
            s.boxes.push_back(gf.bucket_cells(b));
            s.counts.push_back(gf.bucket_record_count(b));
            s.ids.emplace_back();
            s.points.emplace_back();
            for (const auto& r : gf.bucket_records(b)) {
                s.ids.back().push_back(r.id);
                s.points.back().push_back(r.point);
            }
        }
        s.records = gf.record_count();
        s.refinements = gf.refinement_count();
        return s;
    }

    friend bool operator==(const State&, const State&) = default;
};

class CatalogTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_catalog_test");
    std::filesystem::path wal_ =
        test::unique_temp_path("pgf_catalog_test", ".wal");
    Rect<2> domain_{{{0.0, 0.0}}, {{1.0, 1.0}}};

    void TearDown() override {
        std::filesystem::remove(path_);
        std::filesystem::remove(wal_);
    }

    static Paged2::Config config(std::size_t capacity = 6) {
        Paged2::Config cfg;
        cfg.page_size = PagedBucketStore<2>::page_size_for(capacity);
        cfg.pool_pages = 8;  // small: reads and writes go through eviction
        return cfg;
    }

    /// A skewed point set: a third clustered, the rest uniform.
    static std::vector<Point<2>> points(std::size_t n, std::uint64_t seed) {
        Rng rng(seed);
        std::vector<Point<2>> pts(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double spread = i % 3 == 0 ? 0.08 : 1.0;
            const double base = i % 3 == 0 ? 0.3 : 0.0;
            pts[i] = {{base + spread * rng.uniform(),
                       base + spread * rng.uniform()}};
        }
        return pts;
    }

    /// Builds and flushes a file over `pts` (ids = positions); returns its
    /// state as of just before the flush.
    State<2> build(const std::vector<Point<2>>& pts,
                   Paged2::Config cfg = config()) {
        Paged2 pf(path_.string(), domain_, cfg);
        for (std::size_t i = 0; i < pts.size(); ++i) pf.insert(pts[i], i);
        State<2> before = State<2>::of(pf);
        pf.flush();
        return before;
    }

    /// Rewrites the catalog body through `mutate` and re-stamps its
    /// checksum, so only the structural checks can catch the change.
    void restamp(const std::function<void(std::vector<std::byte>&)>& mutate) {
        PageFile file = PageFile::open(path_.string());
        std::vector<std::byte> body = file.read_catalog();
        mutate(body);
        file.write_catalog(body);
    }

    std::uint64_t catalog_offset() const {
        PageFile file = PageFile::open(path_.string());
        return 24 + file.page_count() * file.page_size();
    }
};

// Catalog body offsets for D = 2 (see paged_grid_file.hpp): dims u32 at 0,
// page size u64 at 4, capacity u64 at 12, split rule at 20, journaled at
// 21, the domain at 22..53, then per axis a u32 split count + splits, then
// the u32 bucket count and 24 bytes per bucket.
constexpr std::size_t kSplitRuleAt = 20;
constexpr std::size_t kJournaledAt = 21;
constexpr std::size_t kFirstSplitCountAt = 54;
constexpr std::size_t kBucketBytes = 24;

TEST_F(CatalogTest, ReopenPreservesStructureAndRecords) {
    const auto pts = points(1500, 7);
    const State<2> before = build(pts);
    Paged2 reopened(Paged2::OpenTag{}, path_.string());
    EXPECT_EQ(State<2>::of(reopened), before);

    GridFile<2>::Config twin_cfg;
    twin_cfg.bucket_capacity = reopened.capacity();
    GridFile<2> twin(domain_, twin_cfg);
    for (std::size_t i = 0; i < pts.size(); ++i) twin.insert(pts[i], i);
    EXPECT_EQ(State<2>::of(reopened), State<2>::of(twin));

    const auto report = analysis::audit_paged_grid_file(
        reopened, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(CatalogTest, ReopenedFileAnswersQueriesIdentically) {
    const auto pts = points(1200, 11);
    Paged2 original(path_.string(), domain_, config());
    for (std::size_t i = 0; i < pts.size(); ++i) original.insert(pts[i], i);
    original.flush();
    Paged2 reopened(Paged2::OpenTag{}, path_.string());

    auto ids = [](const std::vector<GridRecord<2>>& records) {
        std::vector<std::uint64_t> out;
        for (const auto& r : records) out.push_back(r.id);
        return out;
    };
    Rng rng(12);
    for (int t = 0; t < 100; ++t) {
        const double x = rng.uniform(), y = rng.uniform();
        const Rect<2> q{{{x, y}}, {{x + 0.2, y + 0.15}}};
        ASSERT_EQ(reopened.query_buckets(q), original.query_buckets(q));
        ASSERT_EQ(ids(reopened.query_records(q)),
                  ids(original.query_records(q)));
        const auto axis = static_cast<std::size_t>(t % 2);
        PartialMatch<2> pm;
        pm.key[axis] = pts[static_cast<std::size_t>(t)][axis];
        ASSERT_EQ(reopened.query_buckets(pm), original.query_buckets(pm));
        ASSERT_EQ(ids(reopened.query_records(pm)),
                  ids(original.query_records(pm)));
    }
}

TEST_F(CatalogTest, ReopenedFileRemainsMutable) {
    const auto pts = points(2000, 13);
    const std::vector<Point<2>> first(pts.begin(), pts.begin() + 800);
    build(first);
    {
        Paged2 pf(Paged2::OpenTag{}, path_.string());
        for (std::size_t i = 800; i < pts.size(); ++i) pf.insert(pts[i], i);
        ASSERT_TRUE(pf.erase(pts[0], 0));
        pf.flush();
    }
    Paged2 reopened(Paged2::OpenTag{}, path_.string());
    Paged2 twin(path_.string() + ".twin", domain_, config());
    for (std::size_t i = 0; i < pts.size(); ++i) twin.insert(pts[i], i);
    ASSERT_TRUE(twin.erase(pts[0], 0));
    EXPECT_EQ(reopened.record_count(), pts.size() - 1);
    EXPECT_EQ(State<2>::of(reopened), State<2>::of(twin));
    const auto report = analysis::audit_paged_grid_file(
        reopened, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
    std::filesystem::remove(path_.string() + ".twin");
}

TEST_F(CatalogTest, ThreeDimensionalReopen) {
    const Rect<3> cube{{{0.0, 0.0, 0.0}}, {{1.0, 1.0, 1.0}}};
    PagedGridFile<3>::Config cfg;
    cfg.page_size = PagedBucketStore<3>::page_size_for(5);
    State<3> before;
    {
        PagedGridFile<3> pf(path_.string(), cube, cfg);
        Rng rng(17);
        for (std::uint64_t i = 0; i < 900; ++i) {
            pf.insert({{rng.uniform(), rng.uniform(), rng.uniform()}}, i);
        }
        before = State<3>::of(pf);
        pf.flush();
    }
    EXPECT_EQ(paged_file_dims(path_.string()), 3u);
    PagedGridFile<3> reopened(PagedGridFile<3>::OpenTag{}, path_.string());
    EXPECT_EQ(State<3>::of(reopened), before);
}

TEST_F(CatalogTest, EmptyFileReopens) {
    build({});
    Paged2 reopened(Paged2::OpenTag{}, path_.string());
    EXPECT_EQ(reopened.bucket_count(), 1u);
    EXPECT_EQ(reopened.record_count(), 0u);
    reopened.insert({{0.5, 0.5}}, 1);
    EXPECT_EQ(reopened.query_records(domain_).size(), 1u);
}

TEST_F(CatalogTest, FlushOfUnmodifiedReopenWritesNothing) {
    build(points(700, 23));
    const auto before = file_bytes(path_);
    {
        Paged2 pf(Paged2::OpenTag{}, path_.string());
        EXPECT_EQ(pf.query_records(domain_).size(), 700u);
        const auto report = analysis::audit_paged_grid_file(
            pf, analysis::ValidationLevel::kDeep);
        EXPECT_TRUE(report.ok()) << report.summary();
        pf.flush();
        EXPECT_EQ(pf.pool().stats().writebacks, 0u);
    }
    EXPECT_EQ(file_bytes(path_), before);
}

TEST_F(CatalogTest, NeverFlushedFileRejected) {
    {
        Paged2 pf(path_.string(), domain_, config());
        for (std::uint64_t i = 0; i < 40; ++i) {
            pf.insert({{0.01 * static_cast<double>(i), 0.5}}, i);
        }
    }
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
    EXPECT_THROW(paged_file_dims(path_.string()), CheckError);
}

TEST_F(CatalogTest, PageWriteAfterFlushInvalidatesCatalog) {
    build(points(500, 29));
    {
        // The dirty page reaches disk when the pool closes, without a
        // flush: the catalog no longer describes the pages.
        Paged2 pf(Paged2::OpenTag{}, path_.string());
        pf.insert({{0.9, 0.9}}, 9999);
    }
    PageFile file = PageFile::open(path_.string());
    EXPECT_FALSE(file.has_catalog());
    EXPECT_EQ(std::filesystem::file_size(path_),
              24 + file.page_count() * file.page_size());
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
}

TEST_F(CatalogTest, WrongDimensionCountRejected) {
    build(points(300, 31));
    EXPECT_EQ(paged_file_dims(path_.string()), 2u);
    EXPECT_THROW(PagedGridFile<3>(PagedGridFile<3>::OpenTag{}, path_.string()),
                 CheckError);
}

TEST_F(CatalogTest, FlippedCatalogByteRejected) {
    build(points(300, 37));
    const auto good = file_bytes(path_);
    const std::uint64_t offset = catalog_offset();
    // Magic, length, checksum, and three body bytes (dims, a domain
    // coordinate, the last bucket count byte).
    for (std::uint64_t at : {offset + 2, offset + 9, offset + 17, offset + 20,
                             offset + 30, std::uint64_t{good.size() - 1}}) {
        SCOPED_TRACE(at - offset);
        auto bad = good;
        bad[at] = static_cast<char>(bad[at] ^ 0x10);
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
        }
        EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
    }
}

TEST_F(CatalogTest, FlippedPageByteFailsThePageChecksum) {
    build(points(300, 41));
    const std::uint64_t offset = catalog_offset();
    {
        auto bytes = file_bytes(path_);
        bytes[offset / 2] = static_cast<char>(bytes[offset / 2] ^ 0x01);
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // The catalog still opens; the damaged page fails when it is read.
    Paged2 pf(Paged2::OpenTag{}, path_.string());
    EXPECT_THROW(pf.query_records(domain_), CheckError);
}

TEST_F(CatalogTest, TruncatedFileRejected) {
    build(points(300, 43));
    const auto size = std::filesystem::file_size(path_);
    const std::uint64_t offset = catalog_offset();
    // Into the catalog body, its header, and the pages before it.
    for (std::uint64_t keep : {size - 1, offset + 10, offset - 100}) {
        SCOPED_TRACE(keep);
        build(points(300, 43));
        std::filesystem::resize_file(path_, keep);
        EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
    }
}

TEST_F(CatalogTest, UnknownSplitRuleRejected) {
    build(points(300, 47));
    restamp([](std::vector<std::byte>& body) {
        body[kSplitRuleAt] = std::byte{1};
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);

    build(points(300, 47));
    restamp([](std::vector<std::byte>& body) {
        body[kJournaledAt] = std::byte{2};
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
}

TEST_F(CatalogTest, RecordCountAboveCapacityRejected) {
    build(points(300, 53));
    restamp([](std::vector<std::byte>& body) {
        // The last bucket's count: capacity (6) + 1.
        store_le<std::uint64_t>(body.data() + body.size() - 8, 7);
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
}

TEST_F(CatalogTest, InsertChecksTheCountWordAgainstTheCatalog) {
    // A catalog count one below its page's count word opens (it is within
    // capacity), but an insert into that bucket, which has room by the
    // catalog's count and appends in place, must refuse to write.
    const State<2> state = build(points(300, 53));
    const auto last = static_cast<std::uint32_t>(state.counts.size() - 1);
    ASSERT_GT(state.counts[last], 0u);
    restamp([&](std::vector<std::byte>& body) {
        store_le<std::uint64_t>(body.data() + body.size() - 8,
                                state.counts[last] - 1);
    });
    Paged2 pf(Paged2::OpenTag{}, path_.string());
    ASSERT_LT(pf.bucket_record_count(last), pf.capacity());
    const Rect<2> region = pf.bucket_region(last);
    const Point<2> inside{{0.5 * (region.lo[0] + region.hi[0]),
                           0.5 * (region.lo[1] + region.hi[1])}};
    ASSERT_EQ(pf.directory().at(pf.locate_cell(inside)), last);
    try {
        pf.insert(inside, 9999);
        ADD_FAILURE() << "insert wrote past a disagreeing count word";
    } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("page header disagrees"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(CatalogTest, CountsAreCheckedBeforeTheyAllocate) {
    // Counts far beyond the catalog's length must fail on the length check
    // rather than size a vector from them.
    build(points(300, 59));
    restamp([](std::vector<std::byte>& body) {
        store_le<std::uint32_t>(body.data() + kFirstSplitCountAt, 0xffffffffu);
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);

    const State<2> state = build(points(300, 59));
    const std::size_t buckets = state.boxes.size();
    restamp([&](std::vector<std::byte>& body) {
        store_le<std::uint32_t>(
            body.data() + body.size() - buckets * kBucketBytes - 4,
            0xffffffffu);
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError);
}

TEST_F(CatalogTest, OpenRejectsBucketBoxesThatDoNotTileTheGrid) {
    // Three points at capacity 2 refine x at 0.5 once: a 2x1 grid whose
    // two one-cell buckets tile it. Each bad case fails one of the
    // directory retile's three checks.
    auto build_two_cells = [&] {
        Paged2 pf(path_.string(), domain_, config(2));
        pf.insert({{0.1, 0.1}}, 0);
        pf.insert({{0.9, 0.1}}, 1);
        pf.insert({{0.1, 0.2}}, 2);
        ASSERT_EQ(pf.grid_shape(), (std::array<std::uint32_t, 2>{2, 1}));
        ASSERT_EQ(pf.bucket_count(), 2u);
        pf.flush();
    };
    // Bucket b's box starts 48 bytes before the end for b = 0, 24 for 1.
    auto set_box = [](std::vector<std::byte>& body, std::size_t b,
                      const CellBox<2>& box) {
        std::byte* at = body.data() + body.size() - (2 - b) * kBucketBytes;
        for (std::size_t i = 0; i < 2; ++i) {
            store_le<std::uint32_t>(at + 8 * i, box.lo[i]);
            store_le<std::uint32_t>(at + 8 * i + 4, box.hi[i]);
        }
    };
    build_two_cells();
    EXPECT_EQ(Paged2(Paged2::OpenTag{}, path_.string()).bucket_count(), 2u);

    build_two_cells();
    restamp([&](std::vector<std::byte>& body) {
        set_box(body, 1, {{1, 0}, {3, 1}});
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError)
        << "box outside the grid";

    build_two_cells();
    restamp([&](std::vector<std::byte>& body) {
        set_box(body, 0, {{0, 0}, {2, 1}});
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError)
        << "overlapping boxes";

    // A third x split (at 0.75) grows the grid to 3x1; the two boxes
    // then leave its last cell unmapped.
    build_two_cells();
    restamp([](std::vector<std::byte>& body) {
        std::vector<std::byte> split(8);
        store_le<std::uint64_t>(split.data(),
                                std::bit_cast<std::uint64_t>(0.75));
        body.insert(body.begin() + kFirstSplitCountAt + 4 + 8, split.begin(),
                    split.end());
        store_le<std::uint32_t>(body.data() + kFirstSplitCountAt, 2);
    });
    EXPECT_THROW(Paged2(Paged2::OpenTag{}, path_.string()), CheckError)
        << "boxes leave a gap";
}

TEST_F(CatalogTest, JournaledFileOpensReadOnlyWithoutItsLog) {
    const auto pts = points(400, 61);
    Paged2::Config cfg = config();
    cfg.wal_path = wal_.string();
    build(pts, cfg);
    const auto before = file_bytes(path_);
    {
        Paged2 pf(Paged2::OpenTag{}, path_.string());
        EXPECT_TRUE(pf.journaled());
        EXPECT_EQ(pf.wal(), nullptr);
        EXPECT_EQ(pf.query_records(domain_).size(), pts.size());
        const auto report = analysis::audit_paged_grid_file(
            pf, analysis::ValidationLevel::kDeep);
        EXPECT_TRUE(report.ok()) << report.summary();
        // A later replay of the log would silently revert any change.
        EXPECT_THROW(pf.insert({{0.5, 0.5}}, 7777), CheckError);
        // Also into a bucket with room, which an insert fills by append.
        std::uint32_t roomy = 0;
        while (roomy < pf.bucket_count() &&
               pf.bucket_record_count(roomy) >= pf.capacity()) {
            ++roomy;
        }
        ASSERT_LT(roomy, pf.bucket_count());
        const Rect<2> region = pf.bucket_region(roomy);
        const Point<2> inside{{0.5 * (region.lo[0] + region.hi[0]),
                               0.5 * (region.lo[1] + region.hi[1])}};
        ASSERT_EQ(pf.directory().at(pf.locate_cell(inside)), roomy);
        EXPECT_THROW(pf.insert(inside, 7778), CheckError);
        EXPECT_THROW(pf.erase(pts[0], 0), CheckError);
        EXPECT_EQ(pf.record_count(), pts.size());
        pf.flush();
    }
    EXPECT_EQ(file_bytes(path_), before);

    // Reopened with its log, the file takes the change, and the flushed
    // catalog carries it.
    {
        Paged2 pf(Paged2::RecoverTag{}, path_.string(), cfg);
        pf.insert({{0.5, 0.5}}, 7777);
        pf.flush();
    }
    Paged2 reopened(Paged2::OpenTag{}, path_.string());
    EXPECT_EQ(reopened.record_count(), pts.size() + 1);
}

}  // namespace
}  // namespace pgf

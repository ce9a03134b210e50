// Randomized query equivalence between the two grid-file backends: every
// range and partial-match query must return the same buckets and the same
// records (in the same order — the stores share the engine's partition-
// based splits) whether the bucket payloads live in memory or behind the
// buffer pool. The thrash cases run with far fewer pool frames than
// buckets, so every query evicts and re-reads pages; under ASan this also
// shakes out any use of page bytes past a pin's lifetime.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <vector>

#include "pgf/gridfile/grid_file.hpp"
#include "pgf/gridfile/partial_match.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

template <std::size_t D>
struct Twins {
    GridFile<D> gf;
    PagedGridFile<D> pf;
    std::vector<Point<D>> pts;
};

// The paged twin is immovable (it owns a buffer pool), so the pair is
// created as a prvalue and filled in place afterwards.
template <std::size_t D>
Twins<D> make_twins(const std::filesystem::path& path,
                    std::size_t pool_pages) {
    Rect<D> domain;
    for (std::size_t d = 0; d < D; ++d) {
        domain.lo[d] = 0.0;
        domain.hi[d] = 1.0;
    }
    typename PagedGridFile<D>::Config pcfg;
    pcfg.page_size = PagedBucketStore<D>::page_size_for(24);
    pcfg.pool_pages = pool_pages;
    typename GridFile<D>::Config mcfg;
    mcfg.bucket_capacity = 24;
    return Twins<D>{GridFile<D>(domain, mcfg),
                    PagedGridFile<D>(path.string(), domain, pcfg),
                    {}};
}

template <std::size_t D>
void fill_twins(Twins<D>& t, std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    t.pts.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < D; ++d) t.pts[i][d] = rng.uniform();
        t.gf.insert(t.pts[i], i);
        t.pf.insert(t.pts[i], i);
    }
}

template <std::size_t D, typename Query>
void expect_same_answers(const Twins<D>& t, const Query& q) {
    ASSERT_EQ(t.gf.query_buckets(q), t.pf.query_buckets(q));
    const auto mem = t.gf.query_records(q);
    const auto paged = t.pf.query_records(q);
    ASSERT_EQ(mem.size(), paged.size());
    for (std::size_t k = 0; k < mem.size(); ++k) {
        ASSERT_EQ(mem[k].id, paged[k].id) << k;
        ASSERT_EQ(mem[k].point, paged[k].point) << k;
    }
}

template <std::size_t D>
void run_range_queries(std::size_t pool_pages, std::uint64_t seed) {
    const auto path = test::unique_temp_path("pgf_paged_queries");
    auto t = make_twins<D>(path, pool_pages);
    fill_twins(t, 4000, seed);
    Rng rng(seed + 100);
    for (int i = 0; i < 150; ++i) {
        Rect<D> q;
        for (std::size_t d = 0; d < D; ++d) {
            const double a = rng.uniform(), b = rng.uniform();
            q.lo[d] = std::min(a, b);
            q.hi[d] = std::max(a, b) * (i % 3 == 0 ? 1.0 : 0.3);
            if (q.hi[d] < q.lo[d]) std::swap(q.lo[d], q.hi[d]);
        }
        expect_same_answers(t, q);
    }
    std::filesystem::remove(path);
}

template <std::size_t D>
void run_partial_match_queries(std::size_t pool_pages, std::uint64_t seed) {
    const auto path = test::unique_temp_path("pgf_paged_queries");
    auto t = make_twins<D>(path, pool_pages);
    fill_twins(t, 4000, seed);
    Rng rng(seed + 200);
    for (int i = 0; i < 120; ++i) {
        PartialMatch<D> q;
        // Pin a random non-empty strict subset of the axes; half the time
        // the pinned value is a stored coordinate so records actually
        // match, the other half it falls between records.
        const auto& donor =
            t.pts[static_cast<std::size_t>(rng.uniform() *
                                           static_cast<double>(t.pts.size()))];
        for (std::size_t d = 0; d < D; ++d) {
            if (rng.uniform() < 0.5) {
                q.key[d] = (i % 2 == 0) ? donor[d] : rng.uniform();
            }
        }
        if (!q.valid()) q.key[D - 1].reset();          // all axes pinned
        if (q.specified_count() == 0) q.key[0] = donor[0];  // none pinned
        expect_same_answers(t, q);
    }
    std::filesystem::remove(path);
}

TEST(PagedQueries, Range2d) { run_range_queries<2>(64, 51); }
TEST(PagedQueries, Range3d) { run_range_queries<3>(64, 52); }
TEST(PagedQueries, PartialMatch2d) { run_partial_match_queries<2>(64, 53); }
TEST(PagedQueries, PartialMatch3d) { run_partial_match_queries<3>(64, 54); }

// Thrash: pools far smaller than the bucket count, so queries continually
// evict and reload pages while answers must stay identical.
TEST(PagedQueries, Range2dThrashesPool) { run_range_queries<2>(2, 55); }
TEST(PagedQueries, PartialMatch3dThrashesPool) {
    run_partial_match_queries<3>(2, 56);
}

TEST(PagedQueries, ThrashedPoolReallyEvicts) {
    const auto path = test::unique_temp_path("pgf_paged_queries");
    auto t = make_twins<2>(path, 2);
    fill_twins(t, 4000, 57);
    ASSERT_GT(t.pf.bucket_count(), 2u);
    const std::uint64_t evictions_before = t.pf.pool().evictions();
    Rect<2> everything{{{0.0, 0.0}}, {{1.0, 1.0}}};
    expect_same_answers(t, everything);
    EXPECT_GT(t.pf.pool().evictions(), evictions_before);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace pgf

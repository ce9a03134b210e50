// External-sort unit tests (pgf/core/extsort.hpp).
//
// The properties the out-of-core pipeline leans on:
//   - the merged output equals a std::sort of the same keyed sequence
//     (the loser tree is just a sort that never holds the data),
//   - run formation is bit-deterministic across thread counts (chunk
//     boundaries are positional, not scheduling-dependent),
//   - duplicate keys keep input order (seq tie-break),
//   - multi-pass reduction (max_fan_in smaller than the run count)
//     changes the plumbing but not the output,
//   - the final merge's thread hands a failure to the caller and stops
//     when the sorter goes, drained or not.
#include "pgf/core/extsort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <vector>

#include "pgf/core/point_source.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/util/temp_dir.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf {
namespace {

using extsort::ExtSortConfig;
using extsort::ExtSorter;

Rect<2> domain2() { return Rect<2>{{{0.0, 0.0}}, {{100.0, 100.0}}}; }

std::vector<Point<2>> random_points(std::size_t n, Rng& rng) {
    std::vector<Point<2>> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(
            Point<2>{{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}});
    }
    return pts;
}

/// Drains a source completely using a fixed read-block size.
template <std::size_t D>
std::vector<Point<D>> drain(PointSource<D>& source, std::size_t block = 173) {
    std::vector<Point<D>> out;
    std::vector<Point<D>> buf(block);
    for (;;) {
        const std::size_t got =
            source.next(std::span<Point<D>>(buf.data(), buf.size()));
        if (got == 0) break;
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
    }
    return out;
}

/// Reference: stable std::sort of (key, position) — what any correct
/// external sort must produce.
template <std::size_t D>
std::vector<Point<D>> reference_sorted(const std::vector<Point<D>>& pts,
                                       const Rect<D>& domain, unsigned bits) {
    struct Keyed {
        std::uint64_t key;
        std::size_t pos;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        keyed.push_back({ExtSorter<D>::hilbert_key(pts[i], domain, bits), i});
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
        return a.key != b.key ? a.key < b.key : a.pos < b.pos;
    });
    std::vector<Point<D>> out;
    out.reserve(pts.size());
    for (const Keyed& k : keyed) out.push_back(pts[k.pos]);
    return out;
}

std::vector<Point<2>> reference_sorted(const std::vector<Point<2>>& pts,
                                       unsigned bits) {
    return reference_sorted<2>(pts, domain2(), bits);
}

TEST(ExtSorter, MatchesStdSortReferenceSingleRun) {
    Rng rng(7);
    const auto pts = random_points(5000, rng);
    VectorPointSource<2> source(pts);
    ExtSortConfig cfg;
    cfg.chunk_records = 1 << 14;  // one run
    ExtSorter<2> sorter(source, domain2(), cfg);
    const auto got = drain<2>(sorter);
    EXPECT_EQ(got, reference_sorted(pts, sorter.config().hilbert_bits));
    EXPECT_EQ(sorter.stats().records, pts.size());
    EXPECT_EQ(sorter.stats().initial_runs, 1u);
    EXPECT_EQ(sorter.stats().merge_passes, 0u);
    EXPECT_GT(sorter.stats().spill_bytes, 0u);
}

TEST(ExtSorter, MatchesStdSortReferenceAcrossRunsAndMergePasses) {
    Rng rng(8);
    const auto pts = random_points(9973, rng);
    const auto expect = [&](ExtSortConfig cfg) {
        VectorPointSource<2> source(pts);
        ExtSorter<2> sorter(source, domain2(), cfg);
        EXPECT_EQ(drain<2>(sorter),
                  reference_sorted(pts, sorter.config().hilbert_bits))
            << "chunk=" << cfg.chunk_records
            << " fan_in=" << cfg.max_fan_in;
        return sorter.stats();
    };
    // Many runs, single merge level.
    ExtSortConfig wide;
    wide.chunk_records = 512;
    auto stats = expect(wide);
    EXPECT_EQ(stats.initial_runs, (9973u + 511u) / 512u);
    EXPECT_EQ(stats.merge_passes, 0u);

    // Tiny fan-in forces reduction passes before the streamed merge.
    ExtSortConfig narrow;
    narrow.chunk_records = 512;
    narrow.max_fan_in = 3;
    stats = expect(narrow);
    EXPECT_GE(stats.merge_passes, 1u);
    EXPECT_LE(stats.final_fan_in, 3u);
}

TEST(ExtSorter, RunFormationDeterministicAcrossThreadCounts) {
    Rng rng(9);
    const auto pts = random_points(20000, rng);
    ExtSortConfig base;
    base.chunk_records = 1024;

    std::vector<Point<2>> serial;
    {
        VectorPointSource<2> source(pts);
        ExtSorter<2> sorter(source, domain2(), base);
        serial = drain<2>(sorter);
    }
    for (unsigned threads : {1u, 3u, 7u}) {
        ThreadPool pool(threads);
        ExtSortConfig cfg = base;
        cfg.pool = &pool;
        VectorPointSource<2> source(pts);
        ExtSorter<2> sorter(source, domain2(), cfg);
        EXPECT_EQ(drain<2>(sorter), serial)
            << "thread count changed the output (threads=" << threads << ")";
    }
}

TEST(ExtSorter, DuplicateKeysKeepInputOrder) {
    // Many copies of few distinct points: every copy of one point has the
    // same Hilbert key, so output order within a key is the seq order.
    std::vector<Point<2>> pts;
    for (std::size_t rep = 0; rep < 300; ++rep) {
        pts.push_back(Point<2>{{10.0, 10.0}});
        pts.push_back(Point<2>{{90.0, 90.0}});
        pts.push_back(Point<2>{{10.0, 90.0}});
    }
    ExtSortConfig cfg;
    cfg.chunk_records = 64;  // duplicates split across many runs
    cfg.max_fan_in = 2;      // and across merge passes
    VectorPointSource<2> source(pts);
    ExtSorter<2> sorter(source, domain2(), cfg);
    const auto got = drain<2>(sorter);
    ASSERT_EQ(got.size(), pts.size());
    // Per distinct point, copies must appear as one contiguous group (all
    // share one key) — and reference_sorted proves group-internal order.
    EXPECT_EQ(got, reference_sorted(pts, sorter.config().hilbert_bits));
}

TEST(ExtSorter, EmptyAndTinyInputs) {
    std::vector<Point<2>> none;
    VectorPointSource<2> empty(none);
    ExtSorter<2> sorter(empty, domain2());
    std::vector<Point<2>> buf(8);
    EXPECT_EQ(sorter.next(std::span<Point<2>>(buf.data(), buf.size())), 0u);
    EXPECT_EQ(sorter.stats().records, 0u);
    EXPECT_EQ(sorter.stats().initial_runs, 0u);

    std::vector<Point<2>> one{Point<2>{{42.0, 17.0}}};
    VectorPointSource<2> single(one);
    ExtSorter<2> sorter1(single, domain2());
    EXPECT_EQ(drain<2>(sorter1), one);
}

TEST(ExtSorter, OutputIsSortedByHilbertKey3d) {
    Rng rng(11);
    std::vector<Point<3>> pts;
    for (std::size_t i = 0; i < 4000; ++i) {
        pts.push_back(Point<3>{{rng.uniform(), rng.uniform(),
                                rng.uniform()}});
    }
    const Rect<3> domain{{{0.0, 0.0, 0.0}}, {{1.0, 1.0, 1.0}}};
    VectorPointSource<3> source(pts);
    ExtSortConfig cfg;
    cfg.chunk_records = 333;
    ExtSorter<3> sorter(source, domain, cfg);
    const auto got = drain<3>(sorter);
    ASSERT_EQ(got.size(), pts.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::uint64_t key = ExtSorter<3>::hilbert_key(
            got[i], domain, sorter.config().hilbert_bits);
        EXPECT_GE(key, prev) << "output not in Hilbert order at " << i;
        prev = key;
    }
}

TEST(ExtSorter, SixtyFourBitKeysMatchReferenceOnEveryPoolSize) {
    // D = 4 at the default 16 bits per axis keys on all 64 bits, so every
    // radix digit matters. Runs of duplicates (each copy shares one key)
    // are laid across the ragged chunk boundaries.
    Rng rng(17);
    const Rect<4> domain{{{0.0, 0.0, 0.0, 0.0}}, {{1.0, 1.0, 1.0, 1.0}}};
    std::vector<Point<4>> pts;
    for (std::size_t i = 0; i < 6000; ++i) {
        const Point<4> p{{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()}};
        const std::size_t copies = i % 97 == 0 ? 40 : 1;
        for (std::size_t c = 0; c < copies; ++c) pts.push_back(p);
    }
    pts.push_back(domain.lo);
    pts.push_back(Point<4>{{1.0, 1.0, 1.0, 1.0}});  // clamps to the last cell
    for (unsigned threads : {1u, 3u, 7u}) {
        ThreadPool pool(threads);
        for (std::size_t chunk : {std::size_t{1} << 20, std::size_t{1000}}) {
            ExtSortConfig cfg;
            cfg.chunk_records = chunk;
            cfg.pool = &pool;
            VectorPointSource<4> source(pts);
            ExtSorter<4> sorter(source, domain, cfg);
            ASSERT_EQ(sorter.config().hilbert_bits, 16u);
            EXPECT_EQ(drain<4>(sorter),
                      reference_sorted<4>(pts, domain, 16))
                << "threads=" << threads << " chunk=" << chunk;
        }
    }
}

TEST(ExtSorter, RejectsKeyWidthAtConstruction) {
    // 33 bits per axis fits a 64-bit key for D = 1 but not the kernel's
    // 32-bit coordinates; the constructor says so before reading a point.
    std::vector<Point<1>> none;
    VectorPointSource<1> source(none);
    ExtSortConfig cfg;
    cfg.hilbert_bits = 33;
    const Rect<1> domain{{{0.0}}, {{1.0}}};
    EXPECT_THROW(ExtSorter<1>(source, domain, cfg), CheckError);
    cfg.hilbert_bits = 32;
    ExtSorter<1> widest(source, domain, cfg);
    EXPECT_EQ(widest.stats().records, 0u);
}

TEST(ExtSorter, SpillsIntoCallerProvidedDirectory) {
    Rng rng(13);
    const auto pts = random_points(1000, rng);
    util::TempDir dir("pgf-extsort-test");
    ExtSortConfig cfg;
    cfg.chunk_records = 128;
    cfg.temp_dir = dir.path();
    VectorPointSource<2> source(pts);
    ExtSorter<2> sorter(source, domain2(), cfg);
    // Run files exist inside the caller's directory while merging.
    bool any = false;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        any = any || entry.is_regular_file();
    }
    EXPECT_TRUE(any) << "no spill files in the provided temp dir";
    EXPECT_EQ(drain<2>(sorter),
              reference_sorted(pts, sorter.config().hilbert_bits));
}

TEST(ExtSorter, HilbertKeyClampsNonFiniteAndHugeCoordinates) {
    // The key clamps before its float-to-integer cast, as the scales'
    // locate does: +inf, NaN and values far above the domain key as the
    // last cell, -inf and values far below it as cell 0.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    const Rect<2> domain = domain2();
    const auto key = [&](double x, double y) {
        return ExtSorter<2>::hilbert_key(Point<2>{{x, y}}, domain, 16);
    };
    for (double y : {0.0, 37.5, 99.9}) {
        const std::uint64_t last = key(100.0, y);  // the upper bound clamps
        const std::uint64_t first = key(0.0, y);
        EXPECT_EQ(key(kInf, y), last) << y;
        EXPECT_EQ(key(kNaN, y), last) << y;
        EXPECT_EQ(key(1e300, y), last) << y;
        EXPECT_EQ(key(1.5e16, y), last) << y;  // past int64 once scaled
        EXPECT_EQ(key(-kInf, y), first) << y;
        EXPECT_EQ(key(-1e300, y), first) << y;
        EXPECT_EQ(key(y, kNaN), key(y, 100.0)) << y;
        EXPECT_EQ(key(y, -kInf), key(y, 0.0)) << y;
    }
    EXPECT_EQ(key(kInf, kInf), sfc::hilbert_index_unchecked<2>(
                                   {{0xffffu, 0xffffu}}, 16));
    EXPECT_EQ(key(-kInf, kNaN),
              sfc::hilbert_index_unchecked<2>({{0u, 0xffffu}}, 16));

    // Such points sort like the boundary cells they clamp into.
    std::vector<Point<2>> pts{{{kInf, 50.0}}, {{-kInf, 1.0}},
                              {{1e300, -1e300}}, {{50.0, 50.0}},
                              {{-5e18, 2e18}}, {{99.99, 0.01}}};
    Rng rng(19);
    for (const Point<2>& p : random_points(300, rng)) pts.push_back(p);
    VectorPointSource<2> source(pts);
    ExtSortConfig cfg;
    cfg.chunk_records = 64;
    ExtSorter<2> sorter(source, domain, cfg);
    EXPECT_EQ(drain<2>(sorter), reference_sorted(pts, 16));
}

/// Cuts `run` to `records` whole records and the first bytes of one more.
void tear_run(const std::filesystem::path& run, std::uint64_t records) {
    ASSERT_TRUE(std::filesystem::exists(run)) << run;
    std::filesystem::resize_file(
        run, records * ExtSorter<2>::kRecordBytes + 5);
}

TEST(ExtSorter, TornRunFileThrowsOnTheCallingThread) {
    // A run file cut mid-record behind the sorter's back: the merge
    // thread reads the torn record, and draining throws its CheckError
    // here — on every later call too.
    Rng rng(23);
    const auto pts = random_points(5000, rng);
    util::TempDir dir("pgf-extsort-torn");
    ExtSortConfig cfg;
    cfg.chunk_records = 1000;
    cfg.merge_buffer_records = 16;  // readers hold 16 records each
    cfg.temp_dir = dir.path();
    VectorPointSource<2> source(pts);
    ExtSorter<2> sorter(source, domain2(), cfg);
    ASSERT_EQ(sorter.stats().final_fan_in, 5u);
    tear_run(dir.path() / "run-3.bin", 500);
    EXPECT_THROW(drain<2>(sorter), CheckError);
    std::vector<Point<2>> buf(8);
    EXPECT_THROW(sorter.next(std::span<Point<2>>(buf.data(), buf.size())),
                 CheckError);
}

TEST(ExtSorter, DestroyedMidStreamOrUndrainedReturns) {
    // One sorter hands out one block and goes while its merge thread
    // waits on the hand-off; another goes before anything is drained.
    // Both return, and both delete their run files.
    Rng rng(29);
    const auto pts = random_points(20000, rng);
    util::TempDir dir("pgf-extsort-early");
    ExtSortConfig cfg;
    cfg.chunk_records = 4096;
    cfg.merge_buffer_records = 64;
    cfg.temp_dir = dir.path();
    {
        VectorPointSource<2> source(pts);
        ExtSorter<2> sorter(source, domain2(), cfg);
        std::vector<Point<2>> block(64);
        ASSERT_EQ(sorter.next(std::span<Point<2>>(block.data(), 64)), 64u);
        const auto expect = reference_sorted(pts, sorter.config().hilbert_bits);
        EXPECT_TRUE(std::equal(block.begin(), block.end(), expect.begin()));
    }
    {
        VectorPointSource<2> source(pts);
        ExtSorter<2> never(source, domain2(), cfg);
        EXPECT_EQ(never.stats().initial_runs, 5u);
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

}  // namespace
}  // namespace pgf

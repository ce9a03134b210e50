#include "pgf/storage/paged_grid_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/parallel/node_backing.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

class PagedGridFileTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_paged_test");
    Rect<2> domain_{{{0.0, 0.0}}, {{1.0, 1.0}}};

    void TearDown() override { std::filesystem::remove(path_); }

    PagedGridFile<2> make(std::size_t page_size = 256,
                          std::size_t pool_pages = 16) {
        PagedGridFile<2>::Config cfg;
        cfg.page_size = page_size;
        cfg.pool_pages = pool_pages;
        return PagedGridFile<2>(path_.string(), domain_, cfg);
    }
};

TEST_F(PagedGridFileTest, CapacityFollowsPageSize) {
    auto pf = make(256);
    // (256 - 16 header - 8 count) / 24 = 9 records per 2-d bucket page.
    EXPECT_EQ(pf.bucket_capacity(), 9u);
    EXPECT_EQ(pf.bucket_count(), 1u);
}

TEST_F(PagedGridFileTest, CapacityAccessorRoundTripsThroughPageSize) {
    auto pf = make(256);
    EXPECT_EQ(pf.capacity(), 9u);
    EXPECT_EQ(pf.capacity(), pf.bucket_capacity());
    // page_size_for is the least page size yielding this capacity, so a
    // memory-backend twin built with capacity() is cell-for-cell
    // comparable to this file.
    EXPECT_EQ(PagedBucketStore<2>::page_size_for(pf.capacity()), 240u);
    EXPECT_EQ(PagedBucketStore<2>::capacity_for(240), 9u);
    EXPECT_EQ(PagedBucketStore<2>::capacity_for(239), 8u);
}

TEST_F(PagedGridFileTest, InsertAndExactQueries) {
    auto pf = make();
    Rng rng(3);
    std::vector<Point<2>> pts;
    for (std::uint64_t i = 0; i < 700; ++i) {
        Point<2> p{{rng.uniform(), rng.uniform()}};
        pts.push_back(p);
        pf.insert(p, i);
    }
    EXPECT_EQ(pf.record_count(), 700u);
    EXPECT_GT(pf.bucket_count(), 40u);
    for (int t = 0; t < 60; ++t) {
        double x0 = rng.uniform(), y0 = rng.uniform();
        Rect<2> q{{{x0, y0}}, {{x0 + 0.25, y0 + 0.25}}};
        auto got = pf.query_records(q);
        std::vector<std::uint64_t> ids;
        for (const auto& r : got) ids.push_back(r.id);
        std::sort(ids.begin(), ids.end());
        std::vector<std::uint64_t> expected;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (q.contains(pts[i])) expected.push_back(i);
        }
        ASSERT_EQ(ids, expected) << "query " << t;
    }
}

TEST_F(PagedGridFileTest, AgreesWithInMemoryGridFileStructure) {
    // Same data, same split policy, same capacity => identical structure.
    auto pf = make(256);
    GridFile<2>::Config cfg;
    cfg.bucket_capacity = pf.bucket_capacity();
    GridFile<2> gf(domain_, cfg);
    Rng rng(7);
    for (std::uint64_t i = 0; i < 500; ++i) {
        Point<2> p{{rng.uniform(), rng.uniform()}};
        pf.insert(p, i);
        gf.insert(p, i);
    }
    EXPECT_EQ(pf.bucket_count(), gf.bucket_count());
    GridStructure ps = pf.structure();
    GridStructure gs = gf.structure();
    EXPECT_NO_THROW(ps.validate());
    EXPECT_EQ(ps.shape, gs.shape);
    for (std::size_t b = 0; b < ps.bucket_count(); ++b) {
        ASSERT_EQ(ps.buckets[b].cell_lo, gs.buckets[b].cell_lo) << b;
        ASSERT_EQ(ps.buckets[b].cell_hi, gs.buckets[b].cell_hi) << b;
        ASSERT_EQ(ps.buckets[b].record_count, gs.buckets[b].record_count);
    }
}

TEST_F(PagedGridFileTest, NoBucketExceedsItsPage) {
    auto pf = make(256);
    Rng rng(11);
    for (std::uint64_t i = 0; i < 1200; ++i) {
        pf.insert({{rng.uniform() * rng.uniform(), rng.uniform()}}, i);
    }
    GridStructure gs = pf.structure();
    for (const auto& b : gs.buckets) {
        EXPECT_LE(b.record_count, pf.bucket_capacity());
    }
}

TEST_F(PagedGridFileTest, BufferPoolSeesHitsAndMisses) {
    auto pf = make(256, /*pool_pages=*/4);  // tiny pool forces eviction
    Rng rng(13);
    for (std::uint64_t i = 0; i < 800; ++i) {
        pf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    std::uint64_t evictions = pf.pool().evictions();
    EXPECT_GT(evictions, 0u);
    // A full scan fetches every bucket page: misses must rise when the
    // working set exceeds four frames.
    std::uint64_t misses_before = pf.pool().misses();
    Rect<2> all{{{0.0, 0.0}}, {{1.0, 1.0}}};
    EXPECT_EQ(pf.query_records(all).size(), 800u);
    EXPECT_GT(pf.pool().misses(), misses_before);
}

TEST_F(PagedGridFileTest, QueryBucketsMatchesRecordScan) {
    auto pf = make();
    Rng rng(17);
    for (std::uint64_t i = 0; i < 400; ++i) {
        pf.insert({{rng.uniform(), rng.uniform()}}, i);
    }
    Rect<2> q{{{0.2, 0.3}}, {{0.6, 0.7}}};
    auto buckets = pf.query_buckets(q);
    std::set<std::uint32_t> unique(buckets.begin(), buckets.end());
    EXPECT_EQ(unique.size(), buckets.size());
    // Record scan only touches listed buckets (pool fetch count check).
    std::uint64_t fetches_before = pf.pool().hits() + pf.pool().misses();
    pf.query_records(q);
    std::uint64_t fetches = pf.pool().hits() + pf.pool().misses() -
                            fetches_before;
    EXPECT_EQ(fetches, buckets.size());
}

TEST_F(PagedGridFileTest, DuplicateOverflowRejectedExplicitly) {
    auto pf = make(256);
    Point<2> p{{0.5, 0.5}};
    bool threw = false;
    // Capacity is 9; somewhere past that the duplicates must be rejected
    // with a CheckError rather than corrupting a page.
    for (std::uint64_t i = 0; i < 64 && !threw; ++i) {
        try {
            pf.insert(p, i);
        } catch (const CheckError&) {
            threw = true;
        }
    }
    EXPECT_TRUE(threw);
}

TEST_F(PagedGridFileTest, RejectedDuplicateKeepsAcceptedRecords) {
    // Capacity 4: the fifth and sixth copy of one point cannot be
    // separated. Each is rejected, and the four records already accepted
    // stay, in the count and on the pages.
    auto pf = make(PagedBucketStore<2>::page_size_for(4));
    const Point<2> p{{0.5, 0.5}};
    for (std::uint64_t i = 0; i < 4; ++i) pf.insert(p, i);
    EXPECT_THROW(pf.insert(p, 4), CheckError);
    EXPECT_THROW(pf.insert(p, 5), CheckError);
    EXPECT_EQ(pf.record_count(), 4u);
    std::vector<std::uint64_t> ids;
    for (const auto& r : pf.query_records(domain_)) ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    const auto report =
        analysis::audit_paged_grid_file(pf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(PagedGridFileTest, RejectedStreamKeepsTheFileUsable) {
    // Ten copies of one point at capacity 4: the stream throws on the
    // fifth. The file must keep the four accepted records and stay
    // usable, so a second stream and a plain insert both work.
    auto pf = make(PagedBucketStore<2>::page_size_for(4));
    const std::vector<Point<2>> same(10, Point<2>{{0.25, 0.75}});
    VectorPointSource<2> dup(same);
    EXPECT_THROW(pf.bulk_load_stream(dup), CheckError);
    EXPECT_EQ(pf.record_count(), 4u);

    Rng rng(31);
    std::vector<Point<2>> fresh(200);
    for (auto& q : fresh) q = {{rng.uniform(), rng.uniform()}};
    VectorPointSource<2> more(fresh);
    EXPECT_EQ(pf.bulk_load_stream(more, 100), fresh.size());
    pf.insert({{0.9, 0.1}}, 1000);
    EXPECT_EQ(pf.record_count(), 4u + fresh.size() + 1u);
    EXPECT_EQ(pf.query_records(domain_).size(), pf.record_count());
    const auto report =
        analysis::audit_paged_grid_file(pf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(PagedGridFileTest, FlushPersistsPages) {
    std::uint64_t pages = 0;
    {
        auto pf = make();
        Rng rng(19);
        for (std::uint64_t i = 0; i < 300; ++i) {
            pf.insert({{rng.uniform(), rng.uniform()}}, i);
        }
        pf.flush();
        pages = pf.bucket_count();
    }
    // Every bucket page made it to disk (file has at least that many pages).
    auto file = PageFile::open(path_.string());
    EXPECT_GE(file.page_count(), pages);
}

TEST_F(PagedGridFileTest, ClosingAReaderKeepsTheOwnersPageCount) {
    // A serving node opens the flushed file; the owner then grows it and
    // flushes again. Closing the node's handle must not roll the on-disk
    // page count back to the one it saw at open — a reopen would then
    // refuse every page past it.
    auto pf = make();
    Rng rng(23);
    std::uint64_t id = 0;
    for (; id < 300; ++id) pf.insert({{rng.uniform(), rng.uniform()}}, id);
    pf.flush();
    auto node = std::make_unique<NodeBacking>(path_.string(), 4);
    const std::uint64_t seen = node->file.page_count();
    for (; id < 1200; ++id) pf.insert({{rng.uniform(), rng.uniform()}}, id);
    pf.flush();
    const std::uint64_t grown = PageFile::open(path_.string()).page_count();
    ASSERT_GT(grown, seen);

    node.reset();
    auto reopened = PageFile::open(path_.string());
    EXPECT_EQ(reopened.page_count(), grown);
    std::vector<std::byte> page(reopened.page_size());
    EXPECT_NO_THROW(reopened.read(grown - 1, page));
}

TEST_F(PagedGridFileTest, EraseRemovesExactRecord) {
    auto pf = make();
    Point<2> p{{0.3, 0.4}};
    pf.insert(p, 1);
    pf.insert(p, 2);
    pf.insert({{0.8, 0.8}}, 3);
    EXPECT_TRUE(pf.erase(p, 1));
    EXPECT_EQ(pf.record_count(), 2u);
    EXPECT_FALSE(pf.erase(p, 1));             // already gone
    EXPECT_FALSE(pf.erase({{0.8, 0.8}}, 2));  // wrong location for id 2
    Rect<2> all{{{0.0, 0.0}}, {{1.0, 1.0}}};
    EXPECT_EQ(pf.query_records(all).size(), 2u);
}

TEST_F(PagedGridFileTest, EraseThenReinsertKeepsStructureValid) {
    auto pf = make();
    Rng rng(23);
    std::vector<Point<2>> pts;
    for (std::uint64_t i = 0; i < 300; ++i) {
        Point<2> p{{rng.uniform(), rng.uniform()}};
        pts.push_back(p);
        pf.insert(p, i);
    }
    for (std::uint64_t i = 0; i < 150; ++i) {
        ASSERT_TRUE(pf.erase(pts[i], i));
    }
    for (std::uint64_t i = 0; i < 150; ++i) {
        pf.insert(pts[i], 1000 + i);
    }
    EXPECT_EQ(pf.record_count(), 300u);
    EXPECT_NO_THROW(pf.structure().validate());
}

TEST_F(PagedGridFileTest, PartialMatchAgreesWithInMemoryGridFile) {
    auto pf = make();
    GridFile<2>::Config cfg;
    cfg.bucket_capacity = pf.bucket_capacity();
    GridFile<2> gf(domain_, cfg);
    Rng rng(29);
    for (std::uint64_t i = 0; i < 400; ++i) {
        Point<2> p{{static_cast<double>(rng.uniform_int(0, 9)) * 0.1 + 0.05,
                    rng.uniform()}};
        pf.insert(p, i);
        gf.insert(p, i);
    }
    for (int k = 0; k < 10; ++k) {
        PartialMatch<2> q;
        q.key[0] = static_cast<double>(k) * 0.1 + 0.05;
        auto paged = pf.query_records(q);
        auto mem = gf.query_records(q);
        ASSERT_EQ(paged.size(), mem.size()) << "x=" << *q.key[0];
    }
}

TEST_F(PagedGridFileTest, RejectsTinyPages) {
    PagedGridFile<2>::Config cfg;
    cfg.page_size = 72;  // (72-16-8)/24 = 2 records: allowed
    EXPECT_NO_THROW(PagedGridFile<2>(path_.string(), domain_, cfg));
    PagedGridFile<4>::Config cfg4;
    cfg4.page_size = 72;  // (72-16-8)/40 = 1 record: too small for 4-d
    Rect<4> domain4{{{0, 0, 0, 0}}, {{1, 1, 1, 1}}};
    EXPECT_THROW(PagedGridFile<4>(path_.string(), domain4, cfg4), CheckError);
}

TEST_F(PagedGridFileTest, InsertAtTheCapacityBoundary) {
    // Both stores: an insert into a bucket holding capacity - 1 records
    // appends (on the paged file with one pool fetch), one into a full
    // bucket splits it; an oversized in-memory bucket stays oversized.
    constexpr std::size_t kCapacity = 8;
    struct Case {
        const char* name;
        std::size_t held;  ///< records in the root bucket before the insert
        bool splits;
    };
    const Case cases[] = {
        {"capacity - 1 appends", kCapacity - 1, false},
        {"capacity splits", kCapacity, true},
    };
    Rng rng(23);
    for (const Case& c : cases) {
        std::vector<Point<2>> pts(c.held + 1);
        for (auto& p : pts) p = {{rng.uniform(), rng.uniform()}};
        GridFile<2> memory(domain_, {kCapacity});
        auto paged = make(PagedBucketStore<2>::page_size_for(kCapacity), 4);
        for (std::uint64_t i = 0; i < c.held; ++i) {
            memory.insert(pts[i], i);
            paged.insert(pts[i], i);
        }
        ASSERT_EQ(memory.bucket_count(), 1u) << c.name;
        ASSERT_EQ(paged.bucket_count(), 1u) << c.name;
        const auto fetches = [&] {
            return paged.pool().hits() + paged.pool().misses();
        };
        const std::uint64_t before = fetches();
        memory.insert(pts[c.held], c.held);
        paged.insert(pts[c.held], c.held);
        EXPECT_EQ(memory.bucket_count() > 1, c.splits) << c.name;
        EXPECT_EQ(paged.bucket_count(), memory.bucket_count()) << c.name;
        EXPECT_EQ(memory.oversized_bucket_count(), 0u) << c.name;
        if (c.splits) {
            EXPECT_GT(fetches() - before, 1u) << c.name;
        } else {
            EXPECT_EQ(fetches() - before, 1u) << c.name;
        }
        EXPECT_EQ(memory.query_records(domain_).size(), c.held + 1)
            << c.name;
        EXPECT_EQ(paged.query_records(domain_).size(), c.held + 1)
            << c.name;
    }

    // Copies of one point cannot be separated: the in-memory bucket goes
    // oversized, and a further copy joins it without another split.
    GridFile<2> memory(domain_, {4});
    const Point<2> p{{0.25, 0.75}};
    for (std::uint64_t i = 0; i < 6; ++i) memory.insert(p, i);
    ASSERT_EQ(memory.oversized_bucket_count(), 1u);
    const std::size_t buckets = memory.bucket_count();
    const std::uint64_t refinements = memory.refinement_count();
    memory.insert(p, 6);
    EXPECT_EQ(memory.oversized_bucket_count(), 1u);
    EXPECT_EQ(memory.bucket_count(), buckets);
    EXPECT_EQ(memory.refinement_count(), refinements);
    const std::uint32_t held = memory.directory().at(memory.locate_cell(p));
    EXPECT_EQ(memory.bucket_record_count(held), 7u);
}

TEST(PagedBucketStoreAppend, WritesTheFilesAnEditSessionWrites) {
    // One insert/erase sequence with splits and runs of up to three
    // records drives two journaled stores whose four-frame pools evict: one
    // takes each insert or run into a bucket with room through append(),
    // the other through edit(), push_back and commit(). The data files and
    // the logs must match byte for byte, with fewer pool fetches on the
    // append side.
    using Store = PagedBucketStore<2>;
    const std::size_t page_size = Store::page_size_for(8);
    const std::size_t capacity = Store::capacity_for(page_size);
    const std::filesystem::path data[] = {
        test::unique_temp_path("pgf_append_data"),
        test::unique_temp_path("pgf_edit_data")};
    const std::filesystem::path logs[] = {
        test::unique_temp_path("pgf_append_wal"),
        test::unique_temp_path("pgf_edit_wal")};
    const auto open = [&](int k) {
        WalSetup<2> setup;
        setup.path = logs[k].string();
        setup.domain = Rect<2>{{{0.0, 0.0}}, {{1.0, 1.0}}};
        return std::make_unique<Store>(data[k].string(), page_size, 4,
                                       setup);
    };
    const std::unique_ptr<Store> stores[] = {open(0), open(1)};
    Store& via_append = *stores[0];
    Store& via_edit = *stores[1];
    for (const auto& s : stores) {
        s->create_bucket({}, 0);
        s->note_op_end();
    }

    Rng rng(71);
    std::uint64_t next_id = 0;
    const auto insert = [&](std::uint32_t b) {
        const GridRecord<2> record{{{rng.uniform(), rng.uniform()}},
                                   next_id++};
        if (via_append.size(b) < capacity) {
            via_append.append(b, {&record, 1});
            via_edit.edit(b).push_back(record);
            via_edit.commit(b);
        } else {
            const std::size_t pivot = 1 + rng.below(8);
            const bool upper = rng.below(2) == 1;
            for (const auto& s : stores) {
                s->edit(b).push_back(record);
                const std::uint32_t fresh = s->create_bucket({}, 0);
                s->split_active(b, fresh, pivot, upper);
                s->commit(upper ? fresh : b);
            }
        }
    };
    const auto erase = [&](std::uint32_t b) {
        if (via_edit.size(b) == 0) return;
        const std::size_t k =
            rng.below(static_cast<std::uint32_t>(via_edit.size(b)));
        for (const auto& s : stores) {
            Store::Records& records = s->edit(b);
            records[k] = records.back();
            records.pop_back();
            s->commit(b);
        }
    };
    const auto step = [&](std::uint32_t b, int k) {
        if (k % 4 == 3) {
            erase(b);
        } else {
            insert(b);
        }
        for (const auto& s : stores) s->note_op_end();
    };
    const auto pick = [&] {
        return rng.below(static_cast<std::uint32_t>(via_edit.bucket_count()));
    };

    const auto append_run = [&](std::uint32_t b, std::size_t n) {
        if (via_edit.size(b) + n > capacity) {
            step(b, 0);
            return;
        }
        std::vector<GridRecord<2>> run;
        for (std::size_t k = 0; k < n; ++k) {
            run.push_back({{{rng.uniform(), rng.uniform()}}, next_id++});
        }
        via_append.append(b, run);
        Store::Records& records = via_edit.edit(b);
        records.insert(records.end(), run.begin(), run.end());
        via_edit.commit(b);
        for (const auto& s : stores) s->note_op_end();
    };

    for (int k = 0; k < 600; ++k) step(pick(), k);
    for (int k = 0; k < 90; ++k) append_run(pick(), 1 + rng.below(3));
    for (int k = 0; k < 200; ++k) step(pick(), k);

    ASSERT_GT(via_edit.bucket_count(), 20u);
    const auto a = via_append.pool().stats();
    const auto e = via_edit.pool().stats();
    EXPECT_GT(a.evictions, 100u);
    EXPECT_EQ(a.evictions, e.evictions);
    EXPECT_EQ(a.writebacks, e.writebacks);
    EXPECT_EQ(a.misses, e.misses);
    EXPECT_LT(a.hits, e.hits);
    for (const auto& s : stores) s->flush();

    const auto bytes = [](const std::filesystem::path& p) {
        std::ifstream in(p, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(bytes(data[0]), bytes(data[1])) << "data files differ";
    EXPECT_EQ(bytes(logs[0]), bytes(logs[1])) << "logs differ";
    for (const auto& path : {data[0], data[1], logs[0], logs[1]}) {
        std::filesystem::remove(path);
    }
}

TEST(PagedBucketStoreDecode, CountWordIsBoundedByThePage) {
    // A checksum-valid page whose count word claims one record more than
    // the page holds must throw, not read past the frame.
    using Store = PagedBucketStore<2>;
    constexpr std::size_t kCapacity = 56;
    const std::size_t page_size = Store::page_size_for(kCapacity);
    ASSERT_EQ(page_size, 1368u);
    std::vector<std::byte> payload(page_size - kPageHeaderBytes);
    std::vector<GridRecord<2>> records(kCapacity);
    for (std::size_t k = 0; k < kCapacity; ++k) {
        records[k].point = {{0.5 * static_cast<double>(k), 1.0}};
        records[k].id = k;
    }
    Store::encode_page(payload, records.data(), kCapacity);
    Store::Records out;
    Store::decode_page(payload, out);
    ASSERT_EQ(out.size(), kCapacity);
    EXPECT_EQ(out.back().id, kCapacity - 1);

    // Little-endian count word: 57 records claimed, 56 fit.
    payload[0] = static_cast<std::byte>(kCapacity + 1);
    EXPECT_THROW(Store::decode_page(payload, out), CheckError);
}

}  // namespace
}  // namespace pgf

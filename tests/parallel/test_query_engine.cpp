#include "pgf/parallel/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "pgf/decluster/registry.hpp"
#include "pgf/disksim/metrics.hpp"
#include "pgf/parallel/pgf_server.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/workload/query_gen.hpp"
#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

using Records = std::vector<GridRecord<2>>;

Records sorted_by_id(Records records) {
    std::sort(records.begin(), records.end(),
              [](const GridRecord<2>& a, const GridRecord<2>& b) {
                  return a.id < b.id;
              });
    return records;
}

void expect_same_records(const Records& got, const Records& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
        EXPECT_EQ(got[i].point, want[i].point) << "record " << i;
    }
}

/// A disk-backed grid file the engine serves, flushed and ready.
struct Fixture {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    std::filesystem::path path = test::unique_temp_path("query_engine");
    PagedGridFile<2> pf;
    GridStructure gs;

    static PagedGridFile<2>::Config small_pages() {
        PagedGridFile<2>::Config cfg;
        cfg.page_size = PagedBucketStore<2>::page_size_for(8);
        return cfg;
    }

    explicit Fixture(std::size_t n_points = 2500)
        : pf(path.string(), domain, small_pages()) {
        Rng rng(3);
        for (std::uint64_t i = 0; i < n_points; ++i) {
            pf.insert({{rng.uniform(), rng.uniform()}}, i);
        }
        pf.flush();
        gs = pf.structure();
    }

    ~Fixture() { std::filesystem::remove(path); }

    Assignment assignment(std::uint32_t disks) const {
        return decluster(gs, Method::kMinimax, disks, {.seed = 7});
    }

    ServingConfig config(unsigned workers, std::size_t concurrency = 8,
                         std::size_t pool_pages = 1024) const {
        ServingConfig c;
        c.nodes = 4;
        c.workers_per_node = workers;
        c.concurrency = concurrency;
        c.pool_pages = pool_pages;
        return c;
    }

    /// A mixed workload: range queries plus partial-match queries on each
    /// single attribute (the paper's two query classes).
    std::vector<QueryEngine<2>::Query> mixed_queries(std::size_t n_rect,
                                                     std::uint64_t seed) const {
        Rng rng(seed);
        std::vector<QueryEngine<2>::Query> qs;
        for (const Rect<2>& q : square_queries(domain, 0.05, n_rect, rng)) {
            qs.push_back(q);
        }
        for (std::size_t i = 0; i < n_rect / 4; ++i) {
            PartialMatch<2> pm;
            pm.key[i % 2] = rng.uniform();
            qs.push_back(pm);
        }
        return qs;
    }

    /// Serial reference through the single-threaded paged query path.
    Records serial(const QueryEngine<2>::Query& q) const {
        if (const Rect<2>* rect = std::get_if<Rect<2>>(&q)) {
            return pf.query_records(*rect);
        }
        return pf.query_records(std::get<PartialMatch<2>>(q));
    }
};

TEST(PartitionNodeBlocks, BinsPerDiskThenConcatenatesPerNode) {
    // 2 nodes x 2 disks. Buckets in query order hit disks 3,0,3,2,0:
    // node 0 owns disks {0,1}, node 1 owns {2,3}; within a node the bins
    // come out disk-major, each bin in query-list order.
    Assignment a;
    a.num_disks = 4;
    a.disk_of = {3, 0, 3, 2, 0};
    const std::vector<std::uint32_t> buckets{0, 1, 2, 3, 4};
    auto nodes = partition_node_blocks(buckets, a, 2, 2);
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_EQ(nodes[0], (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(nodes[1], (std::vector<std::uint32_t>{3, 0, 2}));
}

TEST(PartitionNodeBlocks, MatchesDesResponseMetric) {
    // With one disk per node, a node's block list IS its disk's bin, so
    // the longest list must equal the Sec. 2.2 response-time metric the
    // DES server charges (computed by independent code in disksim).
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(11);
    auto queries = square_queries(f.domain, 0.05, 30, rng);
    QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    for (const Rect<2>& q : queries) {
        f.pf.query_buckets(q, scratch, buckets);
        auto nodes = partition_node_blocks(buckets, a, 4, 1);
        std::size_t covered = 0;
        std::uint32_t worst = 0;
        for (const auto& blocks : nodes) {
            covered += blocks.size();
            worst = std::max<std::uint32_t>(
                worst, static_cast<std::uint32_t>(blocks.size()));
        }
        EXPECT_EQ(covered, buckets.size());
        EXPECT_EQ(worst, response_time(buckets, a));
    }
}

TEST(QueryEngine, MatchesSerialPathAndIsDeterministicAcrossThreadCounts) {
    Fixture f;
    Assignment a = f.assignment(4);
    auto queries = f.mixed_queries(40, 17);

    std::vector<Records> serial;
    for (const auto& q : queries) serial.push_back(sorted_by_id(f.serial(q)));

    std::vector<std::vector<Records>> per_workers;
    for (unsigned workers : {1u, 2u, 8u}) {
        QueryEngine<2> engine(f.pf, a, f.config(workers));
        auto out = engine.run(queries);
        ASSERT_EQ(out.results.size(), queries.size()) << workers;
        // Multiset equality with the serial path...
        for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same_records(sorted_by_id(out.results[i]), serial[i]);
        }
        per_workers.push_back(std::move(out.results));
    }
    // ...and the *gathered order* (node-major, block-list order) depends
    // only on (structure, assignment, query) — identical at every thread
    // count, without sorting.
    for (std::size_t w = 1; w < per_workers.size(); ++w) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same_records(per_workers[w][i], per_workers[0][i]);
        }
    }
}

TEST(QueryEngine, AgreesWithDesServerOnWorkCounters) {
    // The threaded engine and the DES simulation partition identically, so
    // their structural counters must agree exactly. The DES server reads
    // the paged file's in-memory twin: the same insertion sequence at the
    // same capacity, so the same buckets and records.
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(19);
    auto rects = square_queries(f.domain, 0.05, 25, rng);

    GridFile<2> twin(f.domain, {.bucket_capacity = f.pf.capacity()});
    Rng twin_rng(3);  // the Fixture's insertion sequence
    for (std::uint64_t i = 0; i < f.pf.record_count(); ++i) {
        twin.insert({{twin_rng.uniform(), twin_rng.uniform()}}, i);
    }
    ASSERT_EQ(twin.bucket_count(), f.pf.bucket_count());
    ClusterConfig cc;
    cc.nodes = 4;
    ParallelGridFileServer<2> server(twin, a, cc);
    BatchResult des = server.execute(rects);

    QueryEngine<2> engine(f.pf, a, f.config(2));
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());
    auto out = engine.run(queries);

    EXPECT_EQ(out.report.queries, des.queries);
    EXPECT_EQ(out.report.total_blocks, des.total_blocks);
    EXPECT_EQ(out.report.records_returned, des.records_returned);
}

TEST(QueryEngine, StressTinyPoolManyThreadsMixedQueries) {
    // The TSan anchor: 4 nodes x 4 workers + the submitting front end over a
    // pool of only 4 frames per node (the minimum: one pinned page per
    // team worker), with a full admission window of mixed range and
    // partial-match queries — maximum contention on the pool latch, the
    // queues and the completion path. Three batches reuse the same engine.
    Fixture f(3000);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(4, 16, 4));
    for (std::uint64_t round = 0; round < 3; ++round) {
        auto queries = f.mixed_queries(48, 100 + round);
        auto out = engine.run(queries);
        ASSERT_EQ(out.results.size(), queries.size());
        std::uint64_t records = 0;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            Records want = sorted_by_id(f.serial(queries[i]));
            expect_same_records(sorted_by_id(out.results[i]), want);
            records += want.size();
        }
        EXPECT_EQ(out.report.records_returned, records);
        EXPECT_EQ(out.report.queries, queries.size());
        ASSERT_EQ(out.latencies_ms.size(), queries.size());
        for (double ms : out.latencies_ms) EXPECT_GE(ms, 0.0);
    }
}

TEST(QueryEngine, TotalBlocksMatchesDirectoryLookup) {
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(23);
    auto rects = square_queries(f.domain, 0.05, 20, rng);
    std::uint64_t expected = 0;
    QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    for (const Rect<2>& q : rects) {
        f.pf.query_buckets(q, scratch, buckets);
        expected += buckets.size();
    }
    QueryEngine<2> engine(f.pf, a, f.config(2));
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());
    auto out = engine.run(queries);
    EXPECT_EQ(out.report.total_blocks, expected);
    EXPECT_GT(out.report.qps, 0.0);
    EXPECT_GE(out.report.p99_ms, out.report.p50_ms);
    EXPECT_GE(out.report.max_ms, out.report.p99_ms);
}

TEST(QueryEngine, PoolsWarmAcrossRunsAndDropCachesResets) {
    Fixture f;
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(2));
    Rng rng(29);
    auto rects = square_queries(f.domain, 0.08, 20, rng);
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());

    auto cold = engine.run(queries);
    std::uint64_t cold_misses = 0;
    ASSERT_EQ(cold.report.node_pools.size(), 4u);
    for (const auto& s : cold.report.node_pools) cold_misses += s.misses;
    EXPECT_GT(cold_misses, 0u);

    auto warm = engine.run(queries);
    std::uint64_t warm_misses = 0;
    std::uint64_t warm_hits = 0;
    for (const auto& s : warm.report.node_pools) {
        warm_misses += s.misses;
        warm_hits += s.hits;
    }
    EXPECT_EQ(warm_misses, 0u);  // 1024 frames/node hold the working set
    EXPECT_EQ(warm_hits, warm.report.total_blocks);

    engine.drop_caches();
    auto cold2 = engine.run(queries);
    std::uint64_t cold2_misses = 0;
    for (const auto& s : cold2.report.node_pools) cold2_misses += s.misses;
    EXPECT_EQ(cold2_misses, cold_misses);
}

TEST(QueryEngine, EmptyBatchAndMissQuery) {
    Fixture f(600);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(1));
    auto out = engine.run({});
    EXPECT_EQ(out.report.queries, 0u);
    EXPECT_DOUBLE_EQ(out.report.qps, 0.0);
    // A query missing the domain fans out to zero nodes yet must still
    // complete (submit() completes it directly).
    Rect<2> miss{{{5.0, 5.0}}, {{6.0, 6.0}}};
    auto out2 = engine.run({QueryEngine<2>::Query(miss)});
    EXPECT_EQ(out2.report.queries, 1u);
    EXPECT_EQ(out2.report.total_blocks, 0u);
    ASSERT_EQ(out2.results.size(), 1u);
    EXPECT_TRUE(out2.results[0].empty());
}

TEST(QueryEngine, SubmitDrainResultWithoutRun) {
    Fixture f(800);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(2, 2));  // window of two
    Rng rng(31);
    auto rects = square_queries(f.domain, 0.05, 10, rng);
    std::vector<std::size_t> tickets;
    for (const Rect<2>& q : rects) tickets.push_back(engine.submit(q));
    engine.drain();
    for (std::size_t i = 0; i < rects.size(); ++i) {
        EXPECT_EQ(tickets[i], i);
        expect_same_records(sorted_by_id(engine.result(tickets[i])),
                            sorted_by_id(f.pf.query_records(rects[i])));
    }
}

TEST(QueryEngine, RejectsBadConfigs) {
    Fixture f(600);
    Assignment a = f.assignment(4);
    // Pool smaller than the team: a worker could starve pinning its page.
    EXPECT_THROW(QueryEngine<2>(f.pf, a, f.config(8, 8, 4)), CheckError);
    // Assignment width must match nodes * disks_per_node.
    ServingConfig eight = f.config(1);
    eight.nodes = 8;
    EXPECT_THROW(QueryEngine<2>(f.pf, a, eight), CheckError);
    Assignment short_a;
    short_a.num_disks = 4;
    short_a.disk_of.assign(1, 0);
    EXPECT_THROW(QueryEngine<2>(f.pf, short_a, f.config(1)), CheckError);
    ServingConfig zero = f.config(1);
    zero.concurrency = 0;
    EXPECT_THROW(QueryEngine<2>(f.pf, a, zero), CheckError);
}

TEST(QueryEngine, MultiDiskPartitionServedCorrectly) {
    // 2 nodes x 2 disks: the engine's per-node lists are disk bins
    // concatenated, not a plain per-node filter — results must still match
    // the serial path and cover every block.
    Fixture f;
    Assignment a = f.assignment(4);  // 4 disks on 2 nodes
    ServingConfig cfg;
    cfg.nodes = 2;
    cfg.disks_per_node = 2;
    cfg.workers_per_node = 2;
    cfg.concurrency = 4;
    QueryEngine<2> engine(f.pf, a, cfg);
    auto queries = f.mixed_queries(20, 37);
    auto out = engine.run(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_records(sorted_by_id(out.results[i]),
                            sorted_by_id(f.serial(queries[i])));
    }
}

TEST(QueryEngine, InvalidQueryFailsItsBatchAndTheEngineServesOn) {
    // A partial match with every attribute given fails its directory
    // lookup. The error reaches the caller, the query gives its window
    // slot back, and the same engine serves the next batch correctly.
    Fixture f;
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(1, 1));  // window of one
    PartialMatch<2> full;
    full.key[0] = 0.5;
    full.key[1] = 0.5;
    const auto queries = f.mixed_queries(20, 41);
    std::vector<QueryEngine<2>::Query> bad = queries;
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(bad.size() / 2),
               full);
    EXPECT_THROW(engine.run(bad), CheckError);

    auto out = engine.run(queries);
    ASSERT_EQ(out.results.size(), queries.size());
    EXPECT_EQ(out.report.queries, queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_records(sorted_by_id(out.results[i]),
                            sorted_by_id(f.serial(queries[i])));
    }

    // Through submit() directly: the failed query completes with no
    // records, and the next one still fits the window of one.
    EXPECT_THROW(engine.submit(full), CheckError);
    const std::size_t ticket = engine.submit(queries.front());
    engine.drain();
    EXPECT_TRUE(engine.result(ticket - 1).empty());
    expect_same_records(sorted_by_id(engine.result(ticket)),
                        sorted_by_id(f.serial(queries.front())));
}

TEST(QueryEngine, CorruptPageFailsOnlyTheQueriesThatReadIt) {
    // Each page of a small flushed file is corrupted on disk in turn, and
    // a fresh engine (cold node pools) serves a mixed batch over it. The
    // queries whose bucket lists hold that page fail with its checksum
    // error and return nothing; every other query equals the serial path.
    // The run drains, and no node pool keeps a page pinned.
    Fixture f(300);
    Assignment a = f.assignment(4);
    const auto queries = f.mixed_queries(24, 47);
    std::vector<Records> serial;
    std::vector<std::vector<std::uint32_t>> buckets;
    for (const auto& q : queries) {
        serial.push_back(sorted_by_id(f.serial(q)));
        buckets.push_back(std::visit(
            [&](const auto& query) { return f.pf.query_buckets(query); }, q));
    }
    const std::size_t page_size = f.pf.config().page_size;
    const auto flip = [&](std::uint64_t page) {
        std::fstream io(f.path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        const auto at =
            static_cast<std::streamoff>(24 + page * page_size + page_size / 2);
        io.seekg(at);
        const char c = static_cast<char>(io.get());
        io.seekp(at);
        io.put(static_cast<char>(c ^ 0x5a));
    };

    ASSERT_GT(f.pf.bucket_count(), 20u);
    std::size_t failures = 0;
    for (std::uint32_t bad = 0; bad < f.pf.bucket_count(); ++bad) {
        SCOPED_TRACE("corrupt bucket " + std::to_string(bad));
        const std::uint64_t page = f.pf.bucket_page(bad);
        flip(page);
        {
            QueryEngine<2> engine(f.pf, a, f.config(2, 4, 16));
            const auto out = engine.run(queries);
            std::size_t expected = 0;
            for (std::size_t i = 0; i < queries.size(); ++i) {
                const bool reads_bad =
                    std::find(buckets[i].begin(), buckets[i].end(), bad) !=
                    buckets[i].end();
                expected += reads_bad ? 1u : 0u;
                if (reads_bad) {
                    ASSERT_NE(out.errors[i], nullptr) << "query " << i;
                    EXPECT_THROW(std::rethrow_exception(out.errors[i]),
                                 CheckError);
                    EXPECT_TRUE(out.results[i].empty()) << "query " << i;
                } else {
                    EXPECT_EQ(out.errors[i], nullptr) << "query " << i;
                    expect_same_records(sorted_by_id(out.results[i]),
                                        serial[i]);
                }
            }
            EXPECT_EQ(out.report.queries, queries.size());
            EXPECT_EQ(out.report.failed, expected);
            failures += expected;
            for (std::uint32_t n = 0; n < 4; ++n) {
                EXPECT_EQ(engine.node_pool(n).pinned_frames(), 0u)
                    << "node " << n;
            }
        }
        flip(page);
    }
    EXPECT_GT(failures, queries.size());

    QueryEngine<2> engine(f.pf, a, f.config(2, 4, 16));
    const auto out = engine.run(queries);
    EXPECT_EQ(out.report.failed, 0u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_records(sorted_by_id(out.results[i]), serial[i]);
    }
}

TEST(QueryEngine, ConcurrentSubmittersMatchSerialPath) {
    // Two front-end threads submit interleaved halves of a mixed batch;
    // they take turns on the lookup scratch. Every ticket's result must
    // equal the serial path, in the same gathered order a one-thread
    // run() produces.
    Fixture f;
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(2, 4));
    const auto queries = f.mixed_queries(40, 43);
    std::vector<std::size_t> tickets(queries.size());
    std::vector<std::thread> submitters;
    for (std::size_t s = 0; s < 2; ++s) {
        submitters.emplace_back([&, s] {
            for (std::size_t i = s; i < queries.size(); i += 2) {
                tickets[i] = engine.submit(queries[i]);
            }
        });
    }
    for (auto& t : submitters) t.join();
    engine.drain();

    std::vector<Records> concurrent;
    std::vector<bool> seen(queries.size(), false);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_LT(tickets[i], queries.size());
        EXPECT_FALSE(seen[tickets[i]]) << "ticket handed out twice";
        seen[tickets[i]] = true;
        concurrent.push_back(engine.result(tickets[i]));
        expect_same_records(sorted_by_id(concurrent.back()),
                            sorted_by_id(f.serial(queries[i])));
    }
    auto out = engine.run(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_records(concurrent[i], out.results[i]);
    }
}

TEST(QueryEngine, DestroyedWhileWorkersPoll) {
    // Teardown right after a query: the workers are still polling their
    // queues when close() arrives, and must see it and exit.
    Fixture f(600);
    Assignment a = f.assignment(4);
    const Rect<2> q{{{0.2, 0.2}}, {{0.6, 0.6}}};
    const Records want = sorted_by_id(f.pf.query_records(q));
    for (int round = 0; round < 200; ++round) {
        QueryEngine<2> engine(f.pf, a, f.config(1));
        auto out = engine.run({QueryEngine<2>::Query(q)});
        ASSERT_EQ(out.results.size(), 1u);
        expect_same_records(sorted_by_id(out.results[0]), want);
    }
}

}  // namespace
}  // namespace pgf

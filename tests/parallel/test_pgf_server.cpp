#include "pgf/parallel/pgf_server.hpp"

#include <gtest/gtest.h>

#include "pgf/decluster/registry.hpp"
#include "pgf/disksim/simulator.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgf {
namespace {

struct Fixture {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    GridFile<2> gf;
    GridStructure gs;

    explicit Fixture(std::size_t n_points = 2000)
        : gf(domain, {.bucket_capacity = 8}) {
        Rng rng(3);
        for (std::uint64_t i = 0; i < n_points; ++i) {
            gf.insert({{rng.uniform(), rng.uniform()}}, i);
        }
        gs = gf.structure();
    }

    ClusterConfig config(std::uint32_t nodes) const {
        ClusterConfig c;
        c.nodes = nodes;
        return c;
    }

    Assignment assignment(std::uint32_t nodes) const {
        return decluster(gs, Method::kMinimax, nodes, {.seed = 7});
    }
};

TEST(PgfServer, ResponseBlocksMatchSerialMetric) {
    Fixture f;
    Assignment a = f.assignment(4);
    ParallelGridFileServer<2> server(f.gf, a, f.config(4));
    Rng rng(11);
    auto queries = square_queries(f.domain, 0.05, 40, rng);
    BatchResult r = server.execute(queries);
    // The "response time by definition" column must equal the sum of the
    // Sec. 2.2 per-query metric computed by the serial simulator.
    auto qb = collect_query_buckets(f.gf, queries);
    std::uint64_t expected = 0;
    std::uint64_t expected_total = 0;
    for (const auto& buckets : qb) {
        expected += response_time(buckets, a);
        expected_total += buckets.size();
    }
    EXPECT_EQ(r.response_blocks, expected);
    EXPECT_EQ(r.total_blocks, expected_total);
    EXPECT_EQ(r.queries, 40u);
}

TEST(PgfServer, ReturnsEveryQualifyingRecordCount) {
    Fixture f;
    Assignment a = f.assignment(4);
    ParallelGridFileServer<2> server(f.gf, a, f.config(4));
    Rng rng(13);
    auto queries = square_queries(f.domain, 0.1, 25, rng);
    BatchResult r = server.execute(queries);
    std::uint64_t expected = 0;
    for (const auto& q : queries) expected += f.gf.query_records(q).size();
    EXPECT_EQ(r.records_returned, expected);
}

TEST(PgfServer, ElapsedDropsWithMoreNodes) {
    Fixture f(4000);
    Rng rng(17);
    auto queries = square_queries(f.domain, 0.05, 60, rng);
    double prev = std::numeric_limits<double>::infinity();
    for (std::uint32_t p : {2u, 4u, 8u, 16u}) {
        ParallelGridFileServer<2> server(f.gf, f.assignment(p), f.config(p));
        BatchResult r = server.execute(queries);
        EXPECT_LT(r.elapsed_s, prev) << p << " nodes";
        prev = r.elapsed_s;
        EXPECT_GT(r.elapsed_s, 0.0);
    }
}

TEST(PgfServer, CachingMakesRepeatedBatchesCheaper) {
    Fixture f;
    Assignment a = f.assignment(4);
    ClusterConfig cfg = f.config(4);
    cfg.disk.cache_blocks = 100000;  // everything fits
    ParallelGridFileServer<2> server(f.gf, a, cfg);
    Rng rng(19);
    auto queries = square_queries(f.domain, 0.05, 30, rng);
    BatchResult cold = server.execute(queries);
    BatchResult warm = server.execute(queries);
    EXPECT_LT(warm.elapsed_s, cold.elapsed_s);
    EXPECT_EQ(warm.physical_reads, 0u);
    EXPECT_GT(warm.cache_hits, 0u);
    // Dropping the caches restores cold behavior.
    server.drop_caches();
    BatchResult cold2 = server.execute(queries);
    EXPECT_EQ(cold2.physical_reads, cold.physical_reads);
}

TEST(PgfServer, CommunicationTimeGrowsWithQuerySize) {
    Fixture f;
    Assignment a = f.assignment(8);
    ParallelGridFileServer<2> server(f.gf, a, f.config(8));
    Rng rng(23);
    auto small = square_queries(f.domain, 0.01, 50, rng);
    Rng rng2(23);
    auto large = square_queries(f.domain, 0.10, 50, rng2);
    BatchResult rs = server.execute(small);
    server.drop_caches();
    BatchResult rl = server.execute(large);
    EXPECT_GT(rl.comm_time_s, rs.comm_time_s);
}

TEST(PgfServer, CoordinatorLocalTrafficIsFree) {
    // With a single node everything is local: zero communication time.
    Fixture f;
    Assignment a;
    a.num_disks = 1;
    a.disk_of.assign(f.gs.bucket_count(), 0);
    ParallelGridFileServer<2> server(f.gf, a, f.config(1));
    Rng rng(29);
    auto queries = square_queries(f.domain, 0.05, 10, rng);
    BatchResult r = server.execute(queries);
    EXPECT_DOUBLE_EQ(r.comm_time_s, 0.0);
    EXPECT_GT(r.elapsed_s, 0.0);
}

TEST(PgfServer, EmptyBatchAndMissQueries) {
    Fixture f;
    Assignment a = f.assignment(2);
    ParallelGridFileServer<2> server(f.gf, a, f.config(2));
    BatchResult r = server.execute({});
    EXPECT_EQ(r.queries, 0u);
    EXPECT_DOUBLE_EQ(r.elapsed_s, 0.0);
    // A query missing the domain entirely still costs translate time.
    Rect<2> miss{{{5.0, 5.0}}, {{6.0, 6.0}}};
    BatchResult rm = server.execute({miss});
    EXPECT_EQ(rm.total_blocks, 0u);
    EXPECT_GT(rm.elapsed_s, 0.0);
}

TEST(PgfServer, RejectsMismatchedAssignment) {
    Fixture f;
    Assignment a = f.assignment(4);
    EXPECT_THROW(ParallelGridFileServer<2>(f.gf, a, f.config(8)), CheckError);
    Assignment short_a;
    short_a.num_disks = 4;
    short_a.disk_of.assign(1, 0);
    EXPECT_THROW(ParallelGridFileServer<2>(f.gf, short_a, f.config(4)),
                 CheckError);
}

TEST(PgfServer, DeterministicAcrossRuns) {
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(31);
    auto queries = square_queries(f.domain, 0.05, 20, rng);
    ParallelGridFileServer<2> s1(f.gf, a, f.config(4));
    ParallelGridFileServer<2> s2(f.gf, a, f.config(4));
    BatchResult r1 = s1.execute(queries);
    BatchResult r2 = s2.execute(queries);
    EXPECT_DOUBLE_EQ(r1.elapsed_s, r2.elapsed_s);
    EXPECT_DOUBLE_EQ(r1.comm_time_s, r2.comm_time_s);
    EXPECT_EQ(r1.response_blocks, r2.response_blocks);
}

TEST(PgfServer, MultipleDisksPerNodeSpeedUpService) {
    // The paper's machine: seven disks per processor. With the same node
    // count, more disks per node must not slow the batch down, and the
    // per-disk response metric must match the serial computation against
    // the wider assignment.
    Fixture f(4000);
    Rng rng(37);
    auto queries = square_queries(f.domain, 0.05, 40, rng);

    ClusterConfig one = f.config(4);
    Assignment a4 = f.assignment(4);
    ParallelGridFileServer<2> s1(f.gf, a4, one);
    BatchResult r1 = s1.execute(queries);

    ClusterConfig seven = f.config(4);
    seven.disks_per_node = 7;
    Assignment a28 = decluster(f.gs, Method::kMinimax, 28, {.seed = 7});
    ParallelGridFileServer<2> s7(f.gf, a28, seven);
    BatchResult r7 = s7.execute(queries);

    EXPECT_LT(r7.elapsed_s, r1.elapsed_s);
    auto qb = collect_query_buckets(f.gf, queries);
    std::uint64_t expected = 0;
    for (const auto& buckets : qb) expected += response_time(buckets, a28);
    EXPECT_EQ(r7.response_blocks, expected);
    EXPECT_EQ(r7.records_returned, r1.records_returned);
}

TEST(PgfServer, ConcurrencyOverlapsIndependentQueries) {
    Fixture f(4000);
    Assignment a = f.assignment(8);
    Rng rng(41);
    auto queries = square_queries(f.domain, 0.03, 60, rng);

    ParallelGridFileServer<2> seq(f.gf, a, f.config(8));
    BatchResult r1 = seq.execute(queries, 1);
    ParallelGridFileServer<2> par(f.gf, a, f.config(8));
    BatchResult r4 = par.execute(queries, 4);

    // Same work is done either way...
    EXPECT_EQ(r4.queries, r1.queries);
    EXPECT_EQ(r4.total_blocks, r1.total_blocks);
    EXPECT_EQ(r4.records_returned, r1.records_returned);
    EXPECT_EQ(r4.response_blocks, r1.response_blocks);
    // ...but overlapping queries finish sooner.
    EXPECT_LT(r4.elapsed_s, r1.elapsed_s);
}

TEST(PgfServer, ConcurrencyBoundedByDiskContention) {
    // All buckets on one node's single disk: concurrency cannot beat the
    // serialized disk service by much.
    Fixture f(2000);
    Assignment all_one;
    all_one.num_disks = 2;
    all_one.disk_of.assign(f.gs.bucket_count(), 1);
    Rng rng(43);
    auto queries = square_queries(f.domain, 0.05, 30, rng);
    ClusterConfig cfg = f.config(2);
    cfg.disk.cache_blocks = 0;  // force physical reads
    ParallelGridFileServer<2> seq(f.gf, all_one, cfg);
    BatchResult r1 = seq.execute(queries, 1);
    ParallelGridFileServer<2> par(f.gf, all_one, cfg);
    BatchResult r8 = par.execute(queries, 8);
    // The disk serializes everything; only translate/network overlap.
    EXPECT_GT(r8.elapsed_s, 0.8 * r1.elapsed_s);
}

TEST(PgfServer, ZeroConcurrencyRejected) {
    Fixture f(500);
    Assignment a = f.assignment(2);
    ParallelGridFileServer<2> server(f.gf, a, f.config(2));
    EXPECT_THROW(server.execute({}, 0), CheckError);
}

TEST(PgfServer, MultiDiskAssignmentWidthValidated) {
    Fixture f;
    ClusterConfig cfg = f.config(4);
    cfg.disks_per_node = 7;
    Assignment narrow = f.assignment(4);  // targets 4 disks, cluster has 28
    EXPECT_THROW(ParallelGridFileServer<2>(f.gf, narrow, cfg), CheckError);
    cfg.disks_per_node = 0;
    Assignment a = f.assignment(4);
    EXPECT_THROW(ParallelGridFileServer<2>(f.gf, a, cfg), CheckError);
}

}  // namespace
}  // namespace pgf

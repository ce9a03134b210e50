// Tables 4 & 5 — the shared-nothing (IBM SP-2 style) experiments on the
// 4-d spatio-temporal DSMC dataset, declustered with minimax.
//
// Table 4: animation workload — for each time step a series of r = 0.1
// spatial queries tiling the whole volume; block caching matters because
// the temporal axis merges several snapshots per partition.
// Table 5: 100 random 4-d square range queries at r = 0.01/0.05/0.1.
//
// Expected shape: response blocks roughly halve from P=4 to P=8 to P=16;
// elapsed time scales sub-linearly; communication time stays flat-ish for
// the animation workload and grows with r in the random workload.
//
// Default scale is reduced for a laptop run (16 snapshots x ~25k records);
// --full or PGF_FULL_SCALE=1 selects the paper's 59 x ~51k (~3M records).
// (Real per-node page I/O against the response metric is
// ext_io_validation's measurement.)
#include <iostream>

#include "common.hpp"

#include "pgf/parallel/pgf_server.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "table45_sp2");
    const std::size_t snapshots = opt.full_scale ? 59 : 16;
    const std::size_t per_snapshot = opt.full_scale ? 50847 : 25000;
    print_banner(opt, "Tables 4-5 — parallel grid file on a shared-nothing "
                      "cluster (simulated)",
                 "4-d DSMC dataset, minimax declustering; " +
                     std::to_string(snapshots) + " snapshots x " +
                     std::to_string(per_snapshot) + " records");

    Rng rng(opt.seed);
    auto wb = make_workbench<4>(rng, [&](Rng& r) {
        return make_dsmc4d(r, snapshots, per_snapshot);
    });
    const Workbench<4>& bench = *wb;
    auto shape = bench.gf.grid_shape();
    std::cout << bench.summary() << "  grid " << shape[0] << "x" << shape[1]
              << "x" << shape[2] << "x" << shape[3]
              << "  (paper: 3M records, 7x28x21x39 subspaces -> 19956 "
              << "buckets of 8 KB)\n";

    auto execute = [&](const Assignment& a, std::uint32_t nodes,
                       const std::vector<Rect<4>>& queries) {
        ClusterConfig cfg;
        cfg.nodes = nodes;
        ParallelGridFileServer<4> server(bench.gf, a, cfg);
        return server.execute(queries);
    };

    // The minimax declusterings (the expensive part at this bucket count)
    // are shared by both tables, so they are swept once up front.
    const std::vector<std::uint32_t> processors{4, 8, 16};
    auto assignments = harness.sweep(
        "table45_decluster", processors,
        [&](std::uint32_t p, const SweepTask&) {
            return decluster(bench.gs, Method::kMinimax, p,
                             {.seed = opt.seed + 23,
                              .pool = harness.inner_pool()});
        });

    // Table 4: animation queries.
    struct Row4 {
        std::uint32_t p = 0;
        BatchResult r;
    };
    auto rows4 = harness.sweep(
        "table4_animation", processors,
        [&](std::uint32_t p, const SweepTask& task) {
            auto queries =
                animation_queries(bench.dataset.domain, snapshots, 0.1);
            return Row4{p, execute(assignments[task.index], p, queries)};
        });
    TextTable t4({"processors", "response blocks", "comm (s)", "elapsed (s)",
                  "cache hits", "physical reads"});
    for (const Row4& row : rows4) {
        t4.add(row.p, row.r.response_blocks, format_double(row.r.comm_time_s),
               format_double(row.r.elapsed_s), row.r.cache_hits,
               row.r.physical_reads);
    }
    emit(opt, t4, "table4_sp2_animation");

    // Table 5: random range queries, one task per (processors, ratio).
    struct Config5 {
        std::size_t p_index = 0;
        double ratio = 0.0;
    };
    std::vector<Config5> configs5;
    for (std::size_t pi = 0; pi < processors.size(); ++pi) {
        for (double ratio : {0.01, 0.05, 0.10}) {
            configs5.push_back({pi, ratio});
        }
    }
    auto rows5 = harness.sweep(
        "table5_random", configs5, [&](const Config5& c, const SweepTask&) {
            Rng qrng(opt.seed + 5000);
            auto queries =
                square_queries(bench.dataset.domain, c.ratio, 100, qrng);
            return execute(assignments[c.p_index], processors[c.p_index],
                           queries);
        });
    TextTable t5({"processors", "query ratio", "response blocks", "comm (s)",
                  "elapsed (s)"});
    for (std::size_t i = 0; i < configs5.size(); ++i) {
        t5.add(processors[configs5[i].p_index],
               format_double(configs5[i].ratio), rows5[i].response_blocks,
               format_double(rows5[i].comm_time_s),
               format_double(rows5[i].elapsed_s));
    }
    emit(opt, t5, "table5_sp2_random");
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

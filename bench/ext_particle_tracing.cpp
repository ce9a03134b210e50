// Extension experiment — particle tracing (the access pattern named as
// future work in the paper's conclusion).
//
// A trace is a sequence of tiny, spatially correlated range queries that
// follows one particle through the snapshots. Per-query bucket counts are
// small, so the difference between declusterings is governed entirely by
// whether *neighboring* buckets share disks — the regime where the paper
// predicts the proximity-based methods to shine and where it already showed
// minimax's edge growing as queries shrink (Fig. 7).
//
// Also reproduces the conclusion's hardware configuration: the SP-2 with
// 112 disks (16 processors x 7 disks) serving the traced workload.
#include <iostream>

#include "common.hpp"

#include "pgf/parallel/pgf_server.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    const std::size_t snapshots = 16;
    print_banner(opt, "Extension — particle tracing on the 4-d DSMC data",
                 "100 traces x " + std::to_string(snapshots) +
                     " steps, box side 5%; response per declustering, plus "
                     "the 16x7-disk SP-2 configuration");
    Rng rng(opt.seed);
    auto wb = make_workbench<4>(
        rng, [&](Rng& r) { return make_dsmc4d(r, snapshots, 12000); });
    const Workbench<4>& bench = *wb;
    std::cout << bench.summary() << "\n";

    // Per-trace queries, concatenated (the simulator treats them as one
    // sequential stream, like the paper's animation batch).
    Rng trng(opt.seed + 11000);
    std::vector<Rect<4>> queries;
    for (int trace = 0; trace < 100; ++trace) {
        auto tq = trace_queries(bench.dataset.domain, snapshots, 0.05, trng);
        queries.insert(queries.end(), tq.begin(), tq.end());
    }
    auto qb = collect_query_buckets(bench.gf, queries);

    TextTable table({"disks", "DM/D", "FX/D", "HCAM/D", "SSP", "MiniMax",
                     "optimal"});
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        double optimal = 0.0;
        for (Method method : {Method::kDiskModulo, Method::kFieldwiseXor,
                              Method::kHilbert, Method::kSsp,
                              Method::kMinimax}) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 47;
            Assignment a = decluster(bench.gs, method, m, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            row.push_back(format_double(s.avg_response));
            optimal = s.optimal;
        }
        row.push_back(format_double(optimal));
        table.add_row(std::move(row));
    }
    emit(opt, table, "ext_particle_tracing_response");

    // The conclusion's full machine: 16 processors x 7 disks = 112 disks.
    TextTable sp2({"nodes x disks", "response blocks", "comm (s)",
                   "elapsed (s)", "cache hits"});
    for (auto [nodes, per_node] : {std::pair<std::uint32_t, std::uint32_t>{4, 1},
                                   {16, 1},
                                   {16, 7}}) {
        std::uint32_t disks = nodes * per_node;
        Assignment a = decluster(bench.gs, Method::kMinimax, disks,
                                 {.seed = opt.seed + 47});
        ClusterConfig cfg;
        cfg.nodes = nodes;
        cfg.disks_per_node = per_node;
        ParallelGridFileServer<4> server(bench.gf, a, cfg);
        BatchResult r = server.execute(queries);
        sp2.add(std::to_string(nodes) + " x " + std::to_string(per_node),
                r.response_blocks, format_double(r.comm_time_s),
                format_double(r.elapsed_s), r.cache_hits);
    }
    emit(opt, sp2, "ext_particle_tracing_sp2");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

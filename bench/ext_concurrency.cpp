// Extension experiment — concurrent query streams on the shared-nothing
// cluster.
//
// The paper's SP-2 experiments process one query at a time; a production
// server overlaps independent queries. This bench sweeps the closed-loop
// concurrency level and reports batch elapsed time per declustering: a good
// declustering not only shortens single queries but also spreads concurrent
// ones over disjoint disks, so its advantage should widen with concurrency.
#include <iostream>

#include "common.hpp"

#include "pgf/parallel/pgf_server.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Extension — concurrent query streams",
                 "4-d DSMC data, 16 nodes, 200 random r = 0.01 queries; "
                 "elapsed seconds vs closed-loop concurrency");
    Rng rng(opt.seed);
    auto wb = make_workbench<4>(rng, [](Rng& r) {
        return make_dsmc4d(r, 12, 15000);
    });
    const Workbench<4>& bench = *wb;
    std::cout << bench.summary() << "\n";
    Rng qrng(opt.seed + 12000);
    auto queries = square_queries(bench.dataset.domain, 0.01, 200, qrng);

    TextTable table({"concurrency", "DM/D elapsed", "HCAM/D elapsed",
                     "MiniMax elapsed", "MiniMax speedup vs seq"});
    // The assignment depends only on (structure, method, seed) — computed
    // once per method instead of once per (method, concurrency) cell,
    // which recomputed the identical MiniMax spanning tree 5x. Output is
    // byte-identical to the in-loop form (decluster draws from its own
    // seeded stream, never from the workbench rng).
    const std::vector<Method> methods{Method::kDiskModulo, Method::kHilbert,
                                      Method::kMinimax};
    std::vector<Assignment> assignments;
    assignments.reserve(methods.size());
    for (Method method : methods) {
        assignments.push_back(
            decluster(bench.gs, method, 16, {.seed = opt.seed + 53}));
    }
    double minimax_seq = 0.0;
    for (std::uint32_t conc : {1u, 2u, 4u, 8u, 16u}) {
        std::vector<std::string> row{std::to_string(conc)};
        for (std::size_t mi = 0; mi < methods.size(); ++mi) {
            const Method method = methods[mi];
            const Assignment& a = assignments[mi];
            ClusterConfig cfg;
            cfg.nodes = 16;
            ParallelGridFileServer<4> server(bench.gf, a, cfg);
            BatchResult r = server.execute(queries, conc);
            row.push_back(format_double(r.elapsed_s));
            if (method == Method::kMinimax) {
                if (conc == 1) minimax_seq = r.elapsed_s;
                row.push_back(format_double(minimax_seq / r.elapsed_s));
            }
        }
        table.add_row(std::move(row));
    }
    emit(opt, table, "ext_concurrency");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

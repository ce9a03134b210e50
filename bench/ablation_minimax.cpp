// Ablations of the minimax algorithm's design choices (DESIGN.md §4):
//   1. edge weights: proximity index (paper) vs Euclidean-center similarity;
//   2. seeding: random (paper) vs farthest-first;
//   3. KL-style local-search refinement stacked on each algorithm's output
//      (the paper excludes KL for its unbounded pass count — this measures
//      what that exclusion costs).
#include <iostream>

#include "common.hpp"

#include "pgf/decluster/minimax.hpp"
#include "pgf/decluster/weights.hpp"
#include "pgf/disksim/metrics.hpp"
#include "pgf/graph/kernighan_lin.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Ablation — minimax design choices",
                 "hot.2d, r = 0.01; average response time and closest-pair "
                 "quality under variations of weights/seeding/refinement");
    auto inner_pool = make_inner_pool(opt);
    Rng rng(opt.seed);
    auto wb = make_workbench<2>(rng,
                                [](Rng& r) { return make_hotspot2d(r); });
    const Workbench<2>& bench = *wb;
    std::cout << bench.summary() << "\n";
    auto qb = bench.workload(0.01, opt.queries, opt.seed + 6000);

    // 1 + 2: weight kind x seeding.
    TextTable t1({"disks", "prox+random", "prox+farthest", "eucl+random",
                  "eucl+farthest", "optimal"});
    TextTable t1p({"disks", "prox+random", "prox+farthest", "eucl+random",
                   "eucl+farthest"});
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        std::vector<std::string> prow{std::to_string(m)};
        double optimal = 0.0;
        for (WeightKind w : {WeightKind::kProximityIndex,
                             WeightKind::kCenterSimilarity}) {
            for (MinimaxSeeding s : {MinimaxSeeding::kRandom,
                                     MinimaxSeeding::kFarthestFirst}) {
                MinimaxOptions mo;
                mo.seed = opt.seed + 29;
                mo.weight = w;
                mo.seeding = s;
                mo.pool = inner_pool.get();
                Assignment a = minimax_decluster(bench.gs, m, mo);
                WorkloadStats st = evaluate_workload(qb, a);
                row.push_back(format_double(st.avg_response));
                prow.push_back(std::to_string(closest_pairs_same_disk(
                    bench.gs, a, w, inner_pool.get())));
                optimal = st.optimal;
            }
        }
        row.push_back(format_double(optimal));
        t1.add_row(std::move(row));
        t1p.add_row(std::move(prow));
    }
    emit(opt, t1, "ablation_minimax_weights_seeding_response");
    emit(opt, t1p, "ablation_minimax_weights_seeding_closest_pairs");

    // 3: KL refinement on top of each algorithm.
    TextTable t2({"method", "response M=16", "after KL", "KL swaps",
                  "internal before", "internal after"});
    BucketWeights weights(bench.gs);
    for (Method method : {Method::kDiskModulo, Method::kHilbert, Method::kSsp,
                          Method::kMinimax}) {
        DeclusterOptions dopt;
        dopt.seed = opt.seed + 31;
        dopt.pool = inner_pool.get();
        Assignment a = decluster(bench.gs, method, 16, dopt);
        double before = evaluate_workload(qb, a).avg_response;
        KlResult kl =
            kl_refine(a.disk_of, a.num_disks, weights, 4, inner_pool.get());
        double after = evaluate_workload(qb, a).avg_response;
        t2.add(is_index_based(method) ? to_string(method) + "/D"
                                      : to_string(method),
               format_double(before), format_double(after), kl.swaps,
               format_double(kl.internal_before),
               format_double(kl.internal_after));
    }
    emit(opt, t2, "ablation_kl_refinement");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// Ablation — the linearization inside the curve allocation method.
//
// Sec. 2.3 of the paper cites the folklore that the Hilbert curve clusters
// better than column-wise scan, z-curve and Gray coding; HCAM builds on it.
// This bench swaps the curve inside the allocation method and measures the
// response-time consequence on hot.2d and stock.3d.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

template <std::size_t D>
void panel(const Options& opt, const Workbench<D>& bench, double ratio,
           ThreadPool* inner_pool) {
    std::cout << "\n" << bench.summary() << "\n";
    auto qb = bench.workload(ratio, opt.queries, opt.seed + 7000);
    TextTable table({"disks", "Hilbert", "Z-order", "Gray", "Scan",
                     "optimal"});
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        double optimal = 0.0;
        for (Method method : {Method::kHilbert, Method::kMorton,
                              Method::kGrayCode, Method::kScan}) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 37;
            dopt.pool = inner_pool;  // ignored by these index-based methods
            Assignment a = decluster(bench.gs, method, m, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            row.push_back(format_double(s.avg_response));
            optimal = s.optimal;
        }
        row.push_back(format_double(optimal));
        table.add_row(std::move(row));
    }
    emit(opt, table, "ablation_linearization_" + bench.dataset.name);
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Ablation — linearization inside the curve allocation "
                      "method",
                 "Hilbert vs Z-order vs Gray vs row-major scan, data-balance "
                 "conflict resolution, r = 0.05 (2-d) / 0.01 (3-d)");
    auto inner_pool = make_inner_pool(opt);
    Rng rng(opt.seed);
    panel(opt,
          *make_workbench<2>(rng,
                             [](Rng& r) { return make_hotspot2d(r); }),
          0.05, inner_pool.get());
    panel(opt,
          *make_workbench<3>(rng, [](Rng& r) { return make_stock3d(r); }),
          0.01, inner_pool.get());
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

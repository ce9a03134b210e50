// Extension experiment — the MHD magnetosphere dataset.
//
// The paper's conclusion names two large evaluation datasets in progress:
// DSMC and MHD snapshots. This bench runs the Figure-6 comparison on the
// MHD.3d stand-in (bow shock / magnetosheath / cavity structure, see
// DESIGN.md §3): strong curved-surface skew unlike the box-shaped DSMC
// compression, testing whether the paper's ranking generalizes.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Extension — five-algorithm comparison on MHD.3d",
                 "r = 0.01, data-balance conflict resolution; expected: the "
                 "Fig. 6 ranking (MiniMax < SSP <= HCAM/D << DM/D, FX/D)");
    Rng rng(opt.seed);
    auto wb = make_workbench<3>(rng, [](Rng& r) { return make_mhd3d(r); });
    const Workbench<3>& bench = *wb;
    std::cout << bench.summary() << "\n";
    auto qb = bench.workload(0.01, opt.queries, opt.seed + 13000);

    TextTable table({"disks", "DM/D", "FX/D", "HCAM/D", "SSP", "MiniMax",
                     "optimal"});
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        double optimal = 0.0;
        for (Method method : {Method::kDiskModulo, Method::kFieldwiseXor,
                              Method::kHilbert, Method::kSsp,
                              Method::kMinimax}) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 59;
            Assignment a = decluster(bench.gs, method, m, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            row.push_back(format_double(s.avg_response));
            optimal = s.optimal;
        }
        row.push_back(format_double(optimal));
        table.add_row(std::move(row));
    }
    emit(opt, table, "ext_mhd_comparison");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// Table 1 — degree of data balance (B_max * M / B_sum) achieved by DM/D,
// FX/D and HCAM/D on hot.2d, for even disk counts 4..32.
//
// Expected shape: values at or near 1.00 everywhere, HCAM best, then DM,
// FX worst (paper: FX reaches 1.89 at M = 26).
#include <iostream>

#include "common.hpp"

#include "pgf/disksim/metrics.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "table1_data_balance");
    print_banner(opt, "Table 1 — degree of data balance (hot.2d)",
                 "B_max * M / B_sum per declustering method with the data "
                 "balance heuristic; 1.00 = perfect");
    Rng rng(opt.seed);
    auto wb = make_workbench<2>(rng,
                                [](Rng& r) { return make_hotspot2d(r); });
    const Workbench<2>& bench = *wb;
    std::cout << bench.summary() << "\n";

    // The paper's text also reports minimax achieving perfect balance; it
    // rides along as a reference row.
    const std::vector<Method> methods{Method::kDiskModulo,
                                      Method::kFieldwiseXor, Method::kHilbert,
                                      Method::kMinimax};
    struct Config {
        Method method = Method::kDiskModulo;
        std::uint32_t disks = 0;
    };
    std::vector<Config> configs;
    for (Method method : methods) {
        for (std::uint32_t m : disk_sweep()) configs.push_back({method, m});
    }
    auto balances = harness.sweep(
        "table1_hot2d", configs, [&](const Config& c, const SweepTask&) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 11;
            dopt.pool = harness.inner_pool();
            Assignment a = decluster(bench.gs, c.method, c.disks, dopt);
            return degree_of_data_balance(a);
        });

    TextTable table({"method", "4", "6", "8", "10", "12", "14", "16", "18",
                     "20", "22", "24", "26", "28", "30", "32"});
    std::size_t idx = 0;
    for (Method method : methods) {
        std::vector<std::string> row{method == Method::kMinimax
                                         ? to_string(method)
                                         : to_string(method) + "/D"};
        for (std::size_t k = 0; k < disk_sweep().size(); ++k, ++idx) {
            row.push_back(format_double(balances[idx]));
        }
        table.add_row(std::move(row));
    }
    emit(opt, table, "table1_data_balance_hot2d");
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

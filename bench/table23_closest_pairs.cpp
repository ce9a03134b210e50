// Tables 2 & 3 — number of closest bucket pairs assigned to the same disk,
// DSMC.3d (Table 2) and stock.3d (Table 3), M = 4..32.
//
// Expected shape: DM/D and FX/D consistently high; HCAM/D declining with M;
// SSP second lowest, rarely zero; MiniMax rarely above zero (paper Table 2:
// 10, 2, 1, 1, 3, 1, then zeros).
#include <iostream>

#include "common.hpp"

#include "pgf/disksim/metrics.hpp"

namespace pgf::bench {
namespace {

const std::vector<Method> kMethods{Method::kDiskModulo, Method::kFieldwiseXor,
                                   Method::kHilbert, Method::kSsp,
                                   Method::kMinimax};

template <std::size_t D>
void table_for(const Options& opt, SweepHarness& harness,
               const Workbench<D>& bench, const std::string& label) {
    std::cout << "\n" << bench.summary() << "\n";

    struct Config {
        Method method = Method::kDiskModulo;
        std::uint32_t disks = 0;
    };
    std::vector<Config> configs;
    for (Method method : kMethods) {
        for (std::uint32_t m : disk_sweep()) configs.push_back({method, m});
    }
    auto pair_counts = harness.sweep(
        label, configs, [&](const Config& c, const SweepTask&) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 17;
            dopt.pool = harness.inner_pool();
            Assignment a = decluster(bench.gs, c.method, c.disks, dopt);
            return closest_pairs_same_disk(bench.gs, a,
                                           WeightKind::kProximityIndex,
                                           harness.inner_pool());
        });

    TextTable table({"method", "4", "6", "8", "10", "12", "14", "16", "18",
                     "20", "22", "24", "26", "28", "30", "32"});
    std::size_t idx = 0;
    for (Method method : kMethods) {
        std::vector<std::string> row{
            is_index_based(method) ? to_string(method) + "/D"
                                   : to_string(method)};
        for (std::size_t k = 0; k < disk_sweep().size(); ++k, ++idx) {
            row.push_back(std::to_string(pair_counts[idx]));
        }
        table.add_row(std::move(row));
    }
    emit(opt, table, label);
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "table23_closest_pairs");
    print_banner(opt, "Tables 2-3 — closest pairs mapped to the same disk",
                 "count of nearest-neighbor bucket pairs sharing a disk; "
                 "MiniMax should be at or near zero, DM/FX high");
    Rng rng(opt.seed);
    table_for(opt, harness,
              *make_workbench<3>(rng,
                                 [](Rng& r) { return make_dsmc3d(r); }),
              "table2_closest_pairs_dsmc3d");
    table_for(opt, harness,
              *make_workbench<3>(rng,
                                 [](Rng& r) { return make_stock3d(r); }),
              "table3_closest_pairs_stock3d");
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

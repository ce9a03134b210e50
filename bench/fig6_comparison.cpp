// Figure 6 — the five-way comparison: DM/D, FX/D, HCAM/D, SSP and MiniMax
// on hot.2d, DSMC.3d and stock.3d, r = 0.01.
//
// Expected shape (paper Sec. 3.3): minimax consistently smallest response
// (few exceptions at small M); SSP second; HCAM/D close behind, closing in
// as M grows; DM and FX distant fourth/fifth with early flattening —
// DSMC.3d flattens earlier than hot.2d because more of it is uniform.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

const std::vector<Method> kMethods{Method::kDiskModulo, Method::kFieldwiseXor,
                                   Method::kHilbert, Method::kSsp,
                                   Method::kMinimax};

struct Config {
    std::uint32_t disks = 0;
    Method method = Method::kDiskModulo;
};

struct Cell {
    double response = 0.0;
    double optimal = 0.0;
};

template <std::size_t D>
void panel(const Options& opt, SweepHarness& harness,
           const Workbench<D>& bench) {
    std::cout << "\n" << bench.summary() << "\n";
    auto qb = harness.timed("workload_" + bench.dataset.name, [&] {
        return bench.workload(0.01, opt.queries, opt.seed + 3000,
                              harness.pool());
    });

    std::vector<Config> configs;
    for (std::uint32_t m : disk_sweep()) {
        for (Method method : kMethods) configs.push_back({m, method});
    }
    auto cells = harness.sweep(
        "fig6_" + bench.dataset.name, configs,
        [&](const Config& c, const SweepTask&) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 13;
            dopt.pool = harness.inner_pool();
            Assignment a = decluster(bench.gs, c.method, c.disks, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            return Cell{s.avg_response, s.optimal};
        });

    TextTable table({"disks", "DM/D", "FX/D", "HCAM/D", "SSP", "MiniMax",
                     "optimal"});
    std::size_t idx = 0;
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        double optimal = 0.0;
        for (std::size_t k = 0; k < kMethods.size(); ++k, ++idx) {
            row.push_back(format_double(cells[idx].response));
            optimal = cells[idx].optimal;
        }
        row.push_back(format_double(optimal));
        table.add_row(std::move(row));
    }
    emit(opt, table, "fig6_" + bench.dataset.name);
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "fig6_comparison");
    print_banner(opt, "Figure 6 — five-algorithm comparison, r = 0.01",
                 "avg response time (buckets); expected order at large M: "
                 "MiniMax < SSP <= HCAM/D << DM/D, FX/D");
    Rng rng(opt.seed);
    panel(opt, harness,
          *make_workbench<2>(rng,
                             [](Rng& r) { return make_hotspot2d(r); }));
    panel(opt, harness,
          *make_workbench<3>(rng, [](Rng& r) { return make_dsmc3d(r); }));
    panel(opt, harness,
          *make_workbench<3>(rng, [](Rng& r) { return make_stock3d(r); }));
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

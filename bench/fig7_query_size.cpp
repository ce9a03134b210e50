// Figure 7 — effect of query size on stock.3d: response time (left) and
// speedup over the 4-disk configuration (right), HCAM/D vs MiniMax for
// r = 0.01, 0.05, 0.10.
//
// Expected shape: minimax below HCAM in both metrics at every query size,
// with the relative benefit growing as queries get smaller.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "fig7_query_size");
    print_banner(opt, "Figure 7 — query-size effect (stock.3d)",
                 "HCAM/D vs MiniMax across r = 0.01 / 0.05 / 0.10; speedup "
                 "= response(4 disks) / response(M disks)");
    Rng rng(opt.seed);
    auto wb = make_workbench<3>(rng,
                                [](Rng& r) { return make_stock3d(r); });
    const Workbench<3>& bench = *wb;
    std::cout << bench.summary() << "\n";

    const std::vector<double> ratios{0.01, 0.05, 0.10};
    const std::vector<Method> methods{Method::kHilbert, Method::kMinimax};
    std::vector<std::vector<std::vector<std::uint32_t>>> workloads;
    workloads.reserve(ratios.size());
    for (double r : ratios) {
        workloads.push_back(harness.timed(
            "workload_r" + format_double(r), [&] {
                return bench.workload(r, opt.queries, opt.seed + 4000,
                                      harness.pool());
            }));
    }

    struct Config {
        std::uint32_t disks = 0;
        std::size_t ratio_index = 0;
        Method method = Method::kHilbert;
    };
    std::vector<Config> configs;
    for (std::uint32_t m : disk_sweep()) {
        for (std::size_t ri = 0; ri < ratios.size(); ++ri) {
            for (Method method : methods) configs.push_back({m, ri, method});
        }
    }
    auto responses = harness.sweep(
        "fig7_stock3d", configs, [&](const Config& c, const SweepTask&) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 19;
            dopt.pool = harness.inner_pool();
            Assignment a = decluster(bench.gs, c.method, c.disks, dopt);
            return evaluate_workload(workloads[c.ratio_index], a)
                .avg_response;
        });

    TextTable response({"disks", "HCAM r=.01", "MiniMax r=.01", "HCAM r=.05",
                        "MiniMax r=.05", "HCAM r=.10", "MiniMax r=.10"});
    TextTable speedup = response;
    const std::size_t slots = ratios.size() * methods.size();
    std::vector<double> base(responses.begin(),
                             responses.begin() +
                                 static_cast<std::ptrdiff_t>(slots));

    std::size_t idx = 0;
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> r_row{std::to_string(m)};
        std::vector<std::string> s_row{std::to_string(m)};
        for (std::size_t slot = 0; slot < slots; ++slot, ++idx) {
            r_row.push_back(format_double(responses[idx]));
            s_row.push_back(format_double(base[slot] / responses[idx]));
        }
        response.add_row(std::move(r_row));
        speedup.add_row(std::move(s_row));
    }
    emit(opt, response, "fig7_response_stock3d");
    emit(opt, speedup, "fig7_speedup_stock3d");
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// Figure 3 — conflict-resolution heuristics on hot.2d, r = 0.05.
//
// Left panel of the paper: HCAM under all four heuristics (response nearly
// insensitive to the choice). Right panel: FX under all four (most
// sensitive; data balance best). This bench prints both panels as
// method-major tables over M = 4..32, plus DM for completeness, and the
// optimal reference in every row.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

const std::vector<ConflictHeuristic> kHeuristics{
    ConflictHeuristic::kRandom, ConflictHeuristic::kMostFrequent,
    ConflictHeuristic::kDataBalance, ConflictHeuristic::kAreaBalance};

struct Config {
    std::uint32_t disks = 0;
    ConflictHeuristic heuristic = ConflictHeuristic::kRandom;
};

struct Cell {
    double response = 0.0;
    double optimal = 0.0;
};

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "fig3_conflict_resolution");
    print_banner(opt, "Figure 3 — conflict resolution heuristics (hot.2d)",
                 "avg response time (buckets) of 1000 square queries, "
                 "r = 0.05; data balance should win, HCAM should be "
                 "insensitive, FX most sensitive");
    Rng rng(opt.seed);
    auto wb = make_workbench<2>(rng,
                                [](Rng& r) { return make_hotspot2d(r); });
    const Workbench<2>& bench = *wb;
    std::cout << bench.summary() << "\n";
    auto qb = harness.timed("workload_hot2d", [&] {
        return bench.workload(0.05, opt.queries, opt.seed + 1000,
                              harness.pool());
    });

    std::vector<Config> configs;
    for (std::uint32_t m : disk_sweep()) {
        for (ConflictHeuristic h : kHeuristics) configs.push_back({m, h});
    }

    for (Method method : {Method::kHilbert, Method::kFieldwiseXor,
                          Method::kDiskModulo}) {
        auto cells = harness.sweep(
            "fig3_" + to_string(method), configs,
            [&](const Config& c, const SweepTask&) {
                DeclusterOptions dopt;
                dopt.heuristic = c.heuristic;
                dopt.seed = opt.seed + 7;
                dopt.pool = harness.inner_pool();
                Assignment a = decluster(bench.gs, method, c.disks, dopt);
                WorkloadStats s = evaluate_workload(qb, a);
                return Cell{s.avg_response, s.optimal};
            });

        TextTable table({"disks", "random", "most-freq", "data-bal",
                         "area-bal", "optimal"});
        std::size_t idx = 0;
        for (std::uint32_t m : disk_sweep()) {
            std::vector<std::string> row{std::to_string(m)};
            double optimal = 0.0;
            for (std::size_t k = 0; k < kHeuristics.size(); ++k, ++idx) {
                row.push_back(format_double(cells[idx].response));
                optimal = cells[idx].optimal;
            }
            row.push_back(format_double(optimal));
            table.add_row(std::move(row));
        }
        emit(opt, table, "fig3_" + to_string(method) + "_hot2d");
    }
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

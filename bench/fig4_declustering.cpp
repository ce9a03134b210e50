// Figure 4 — index-based declustering algorithms with the data-balance
// heuristic on uniform.2d, hot.2d and correl.2d, r = 0.05.
//
// Expected shape (paper Sec. 2.2.1): DM best at small M (near-optimal on
// uniform.2d); DM and FX saturate as M grows — DM flattens around six
// disks on uniform.2d — while HCAM keeps improving and wins at large M;
// FX saturates at a lower level than DM.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

const std::vector<Method> kMethods{Method::kDiskModulo, Method::kFieldwiseXor,
                                   Method::kHilbert};

struct Config {
    std::uint32_t disks = 0;
    Method method = Method::kDiskModulo;
};

struct Cell {
    double response = 0.0;
    double optimal = 0.0;
};

void panel(const Options& opt, SweepHarness& harness,
           const Workbench<2>& bench) {
    auto qb = harness.timed("workload_" + bench.dataset.name, [&] {
        return bench.workload(0.05, opt.queries, opt.seed + 2000,
                              harness.pool());
    });

    std::vector<Config> configs;
    for (std::uint32_t m : disk_sweep()) {
        for (Method method : kMethods) configs.push_back({m, method});
    }
    auto cells = harness.sweep(
        "fig4_" + bench.dataset.name, configs,
        [&](const Config& c, const SweepTask&) {
            DeclusterOptions dopt;  // data balance is the default heuristic
            dopt.seed = opt.seed + 11;
            dopt.pool = harness.inner_pool();
            Assignment a = decluster(bench.gs, c.method, c.disks, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            return Cell{s.avg_response, s.optimal};
        });

    TextTable table({"disks", "DM/D", "FX/D", "HCAM/D", "optimal"});
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
    emit(opt, table, "fig4_" + bench.dataset.name);
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    SweepHarness harness(opt, "fig4_declustering");
    print_banner(opt, "Figure 4 — declustering algorithms with data balance",
                 "avg response time (buckets), 1000 square queries, r = 0.05; "
                 "DM wins small M, saturates; HCAM wins large M");
    Rng rng(opt.seed);
    struct PanelSpec {
        const char* name;
        Dataset<2> (*maker)(Rng&, std::size_t);
    };
    for (PanelSpec spec : {PanelSpec{"uniform.2d", &make_uniform2d},
                           PanelSpec{"hotspot.2d", &make_hotspot2d},
                           PanelSpec{"correl.2d", &make_correl2d}}) {
        auto wb = make_workbench<2>(
            rng, [&spec](Rng& r) { return spec.maker(r, 10000); });
        std::cout << "\n" << wb->summary() << "\n";
        panel(opt, harness, *wb);
    }
    return harness.write_timings() ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

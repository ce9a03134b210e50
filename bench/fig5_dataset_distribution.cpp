// Figure 5 — spatial distribution of the DSMC.3d and stock.3d datasets.
//
// The paper shows a histogram of particle population per fixed cell volume
// (DSMC.3d) and a stock-id vs price-slice scatter (stock.3d). This bench
// prints the same two views: an occupancy histogram for the DSMC cloud and
// an id x price occupancy map for the market data, plus the grid-file
// structural summaries quoted in Sec. 3.2 (DSMC.3d: 16x12x8 = 1536
// subspaces merged into 444 buckets; stock.3d: 32x22x9 = 6336 subspaces
// merged into 1218 buckets).
#include <iostream>

#include "common.hpp"

#include "pgf/util/stats.hpp"

namespace pgf::bench {
namespace {

void dsmc_panel(const Options& opt, Rng& rng) {
    auto wb = make_workbench<3>(rng,
                                [](Rng& r) { return make_dsmc3d(r); });
    const Workbench<3>& bench = *wb;
    std::cout << "\n" << bench.summary() << "  (paper: 52857 records, 1536 "
              << "subspaces -> 444 buckets)\n";
    // Histogram of particles per fixed 16x16x16 cell, like the paper's
    // molecule-population histogram.
    constexpr std::size_t kCells = 16;
    std::vector<std::size_t> occupancy(kCells * kCells * kCells, 0);
    for (const auto& p : bench.dataset.points) {
        auto ix = std::min<std::size_t>(
            static_cast<std::size_t>(p[0] * kCells), kCells - 1);
        auto iy = std::min<std::size_t>(
            static_cast<std::size_t>(p[1] * kCells), kCells - 1);
        auto iz = std::min<std::size_t>(
            static_cast<std::size_t>(p[2] * kCells), kCells - 1);
        ++occupancy[(ix * kCells + iy) * kCells + iz];
    }
    double max_occ = 0;
    for (auto o : occupancy) max_occ = std::max(max_occ, static_cast<double>(o));
    Histogram hist(0.0, max_occ + 1.0, 12);
    for (auto o : occupancy) hist.add(static_cast<double>(o));
    std::cout << "particles per (1/16)^3 cell (free stream = low bins, "
              << "compression front = long tail):\n"
              << hist.ascii(48);

    TextTable table({"axis", "grid cells"});
    auto shape = bench.gf.grid_shape();
    table.add("x", shape[0]);
    table.add("y", shape[1]);
    table.add("z", shape[2]);
    emit(opt, table, "fig5_dsmc3d_grid");
}

void stock_panel(const Options& opt, Rng& rng) {
    auto wb = make_workbench<3>(rng,
                                [](Rng& r) { return make_stock3d(r); });
    const Workbench<3>& bench = *wb;
    std::cout << "\n" << bench.summary() << "  (paper: 127026 records, 6336 "
              << "subspaces -> 1218 buckets)\n";
    // id (x-axis, 64 columns) vs price slice (y-axis, 24 rows) map.
    constexpr std::size_t kCols = 64, kRows = 24;
    std::vector<std::size_t> map(kCols * kRows, 0);
    const double id_max = bench.dataset.domain.hi[0];
    const double price_max = bench.dataset.domain.hi[1];
    for (const auto& p : bench.dataset.points) {
        auto c = std::min<std::size_t>(
            static_cast<std::size_t>(p[0] / id_max * kCols), kCols - 1);
        auto r = std::min<std::size_t>(
            static_cast<std::size_t>(p[1] / price_max * kRows), kRows - 1);
        ++map[r * kCols + c];
    }
    std::cout << "stock id (x) vs price slice (y) occupancy "
              << "(' ' none, '.' sparse, '#' dense):\n";
    for (std::size_t r = kRows; r-- > 0;) {
        for (std::size_t c = 0; c < kCols; ++c) {
            std::size_t v = map[r * kCols + c];
            std::cout << (v == 0 ? ' ' : v < 40 ? '.' : '#');
        }
        std::cout << "\n";
    }

    TextTable table({"axis", "grid cells"});
    auto shape = bench.gf.grid_shape();
    table.add("stock id", shape[0]);
    table.add("price", shape[1]);
    table.add("day", shape[2]);
    emit(opt, table, "fig5_stock3d_grid");
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Figure 5 — dataset distributions (DSMC.3d, stock.3d)",
                 "occupancy views of the synthetic stand-ins; see DESIGN.md "
                 "section 3 for the substitution rationale");
    Rng rng(opt.seed);
    dsmc_panel(opt, rng);
    stock_panel(opt, rng);
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

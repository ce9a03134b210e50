// Figure 2 — sample grid files for the three 2-d synthetic datasets.
//
// The paper's figure is a picture of the grids; the reproducible content is
// the structural summary it quotes in Sec. 2.2:
//   uniform.2d: 252 buckets, 4 of which merge multiple subspaces
//   hot.2d:     241 buckets, 169 merged
//   correl.2d:  242 buckets, 164 merged
// This bench prints the same counts for the regenerated datasets plus an
// ASCII rendering of each grid's scale structure.
#include <iostream>

#include "common.hpp"

namespace pgf::bench {
namespace {

void ascii_grid(const GridFile<2>& gf) {
    // Character map of the directory: letters cycle per bucket so merged
    // regions show up as repeated characters.
    auto shape = gf.grid_shape();
    const std::uint32_t rows = std::min(shape[1], 40u);
    const std::uint32_t cols = std::min(shape[0], 64u);
    for (std::uint32_t jr = 0; jr < rows; ++jr) {
        std::uint32_t j = shape[1] - 1 - jr;  // y grows upward
        for (std::uint32_t i = 0; i < cols; ++i) {
            std::uint32_t b = gf.directory().at({i, j});
            std::cout << static_cast<char>('a' + (b % 26));
        }
        std::cout << "\n";
    }
}

void report(const Options& opt, const Workbench<2>& bench,
            std::size_t paper_buckets, std::size_t paper_merged,
            TextTable& table) {
    const Dataset<2>& ds = bench.dataset;
    const GridFile<2>& gf = bench.gf;
    auto shape = gf.grid_shape();
    // Directory growth vs bucket count: skew inflates the directory (many
    // cells per bucket), the classic grid-file overhead merging contains.
    std::uint64_t cells = static_cast<std::uint64_t>(shape[0]) * shape[1];
    table.add(ds.name, gf.record_count(), std::to_string(shape[0]) + "x" +
                                              std::to_string(shape[1]),
              cells, gf.bucket_count(), gf.merged_bucket_count(),
              format_double(static_cast<double>(cells) /
                            static_cast<double>(gf.bucket_count())),
              paper_buckets, paper_merged);
    std::cout << "\n" << ds.name << " grid (" << shape[0] << "x" << shape[1]
              << " cells, letters = buckets):\n";
    ascii_grid(gf);
    (void)opt;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Figure 2 / Sec 2.2 — sample grid files",
                 "bucket and merged-subspace counts of the three synthetic "
                 "2-d datasets (10,000 points, 4 KB buckets)");
    TextTable table({"dataset", "records", "grid", "cells", "buckets",
                     "merged", "cells/bucket", "paper buckets",
                     "paper merged"});
    Rng rng(opt.seed);
    report(opt,
           *make_workbench<2>(rng,
                              [](Rng& r) { return make_uniform2d(r); }),
           252, 4, table);
    report(opt,
           *make_workbench<2>(rng,
                              [](Rng& r) { return make_hotspot2d(r); }),
           241, 169, table);
    report(opt,
           *make_workbench<2>(rng,
                              [](Rng& r) { return make_correl2d(r); }),
           242, 164, table);
    emit(opt, table, "fig2_dataset_structure");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// curve_gallery — visual intuition for the index-based allocation methods:
// renders, for a small 2-d grid, the disk assigned to every cell by DM, FX
// and each space-filling-curve method, as ASCII maps. Two cells with the
// same character share a disk; a good declustering never gives neighbors
// the same character.
//
//   $ ./curve_gallery [--size 16] [--disks 4]
#include <iostream>

#include "pgf/decluster/index_based.hpp"
#include "pgf/decluster/registry.hpp"
#include "pgf/sfc/curve.hpp"
#include "pgf/util/cli.hpp"

int main(int argc, char** argv) {
    pgf::Cli cli(argc, argv);
    if (!cli.check_flags({"size", "disks"})) return 2;
    const auto size = static_cast<std::uint32_t>(cli.get_int("size", 16));
    const auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 4));

    pgf::GridStructure gs = pgf::make_cartesian_structure(
        {size, size}, {0.0, 0.0},
        {static_cast<double>(size), static_cast<double>(size)});

    for (pgf::Method m : {pgf::Method::kDiskModulo, pgf::Method::kFieldwiseXor,
                          pgf::Method::kHilbert, pgf::Method::kMorton,
                          pgf::Method::kGrayCode, pgf::Method::kScan}) {
        auto cell_disk = pgf::cell_disks(gs, m, disks);
        std::cout << "\n" << pgf::to_string(m) << " on " << disks
                  << " disks (" << size << "x" << size << " cells):\n";
        // Count how often 4-neighbors share a disk — the quality at a
        // glance number.
        std::size_t bad_neighbors = 0, neighbor_pairs = 0;
        for (std::uint32_t y = size; y-- > 0;) {
            for (std::uint32_t x = 0; x < size; ++x) {
                std::uint32_t d = cell_disk[x * size + y];
                std::cout << static_cast<char>(d < 10 ? '0' + d
                                                      : 'a' + (d - 10));
                if (x + 1 < size) {
                    ++neighbor_pairs;
                    bad_neighbors +=
                        d == cell_disk[(x + 1) * size + y] ? 1u : 0u;
                }
                if (y + 1 < size) {
                    ++neighbor_pairs;
                    bad_neighbors += d == cell_disk[x * size + y + 1] ? 1u : 0u;
                }
            }
            std::cout << "\n";
        }
        std::cout << bad_neighbors << "/" << neighbor_pairs
                  << " adjacent cell pairs share a disk\n";
    }

    std::cout << "\nHilbert traversal order (first-order intuition, 8x8):\n";
    std::vector<std::uint32_t> shape{8, 8};
    auto order = pgf::sfc::curve_order(pgf::sfc::CurveKind::kHilbert, shape);
    std::vector<std::size_t> rank(64);
    for (std::size_t r = 0; r < order.size(); ++r) {
        rank[order[r][0] * 8 + order[r][1]] = r;
    }
    for (std::uint32_t y = 8; y-- > 0;) {
        for (std::uint32_t x = 0; x < 8; ++x) {
            std::printf("%3zu", rank[x * 8 + y]);
        }
        std::cout << "\n";
    }
    return 0;
}

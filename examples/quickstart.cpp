// Quickstart — the whole pgf pipeline in one page:
//   1. generate a multidimensional dataset,
//   2. load it into a grid file,
//   3. decluster the buckets over M disks with the minimax algorithm,
//   4. run a range query and see how the I/O spreads across disks.
//
//   $ ./quickstart [--disks 8] [--points 10000]
#include <iostream>

#include "pgf/core/declusterer.hpp"
#include "pgf/disksim/simulator.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/table.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

int main(int argc, char** argv) {
    pgf::Cli cli(argc, argv);
    if (!cli.check_flags({"disks", "points"})) return 2;
    const auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 8));
    const auto points = static_cast<std::size_t>(cli.get_int("points", 10000));

    // 1. A skewed synthetic dataset: uniform background + central hot spot.
    pgf::Rng rng(7);
    pgf::Dataset<2> dataset = pgf::make_hotspot2d(rng, points);

    // 2. Load it into a grid file (4 KB buckets).
    pgf::GridFile<2> gf = dataset.build();
    std::cout << "grid file: " << gf.record_count() << " records in "
              << gf.bucket_count() << " buckets ("
              << gf.merged_bucket_count() << " merged), grid "
              << gf.grid_shape()[0] << "x" << gf.grid_shape()[1] << "\n";

    // 3. Decluster with the paper's minimax spanning-tree algorithm.
    pgf::Declusterer declusterer(gf.structure());
    pgf::DeclusterReport report =
        declusterer.run(pgf::Method::kMinimax, disks, {.seed = 42});
    std::cout << "minimax over " << disks
              << " disks: data balance = " << report.data_balance
              << ", closest pairs on one disk = " << report.closest_pairs
              << "\n";

    // 4. One range query: which buckets, on which disks?
    pgf::Rect<2> query{{{800.0, 800.0}}, {{1200.0, 1200.0}}};
    auto buckets = gf.query_buckets(query);
    std::vector<std::size_t> per_disk(disks, 0);
    for (auto b : buckets) ++per_disk[report.assignment.disk_of[b]];
    pgf::TextTable table({"disk", "buckets fetched"});
    for (std::uint32_t d = 0; d < disks; ++d) table.add(d, per_disk[d]);
    table.print(std::cout);
    std::cout << "query touches " << buckets.size() << " buckets; response "
              << "time (max per disk) = "
              << pgf::response_time(buckets, report.assignment)
              << " bucket reads vs " << buckets.size()
              << " if everything sat on one disk\n";

    // Bonus: compare the average response of minimax and disk modulo over a
    // realistic workload.
    pgf::Rng qrng(11);
    auto workload = pgf::collect_query_buckets(
        gf, pgf::square_queries(dataset.domain, 0.05, 300, qrng));
    for (pgf::Method m : {pgf::Method::kDiskModulo, pgf::Method::kMinimax}) {
        auto a = pgf::decluster(gf.structure(), m, disks, {.seed = 42});
        auto stats = pgf::evaluate_workload(workload, a);
        std::cout << pgf::to_string(m) << ": avg response "
                  << pgf::format_double(stats.avg_response)
                  << " buckets (optimal "
                  << pgf::format_double(stats.optimal) << ")\n";
    }
    return 0;
}

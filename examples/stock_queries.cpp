// stock_queries — a market-data analyst's workload on a declustered grid
// file: two years of (stock id, price, day) quotes, queried with the kinds
// of ad-hoc range predicates a spatial index makes cheap, e.g. "stocks in
// this id range that traded between $20 and $40 during the spring".
//
// Compares how every declustering algorithm in the library spreads that
// workload over a disk farm.
//
//   $ ./stock_queries [--disks 16] [--records 60000] [--queries 400]
#include <iostream>

#include "pgf/core/declusterer.hpp"
#include "pgf/disksim/simulator.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/table.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

int main(int argc, char** argv) try {
    pgf::Cli cli(argc, argv);
    if (!cli.check_flags({"disks", "records", "queries"})) return 2;
    const auto disks = cli.get_int<std::uint32_t>("disks", 16);
    const auto records = cli.get_int<std::size_t>("records", 60000);
    const auto n_queries = cli.get_int<std::size_t>("queries", 400);

    pgf::Rng rng(5);
    pgf::Dataset<3> ds = pgf::make_stock3d(rng, records);
    pgf::GridFile<3> gf = ds.build();
    std::cout << "loaded " << gf.record_count() << " quotes into "
              << gf.bucket_count() << " buckets\n";

    // One concrete analyst query, answered exactly.
    pgf::Rect<3> spring_mid_caps{{{100.0, 20.0, 120.0}},
                                 {{160.0, 40.0, 180.0}}};
    auto hits = gf.query_records(spring_mid_caps);
    std::cout << "example query [ids 100-160, price $20-$40, days 120-180]: "
              << hits.size() << " quotes from "
              << gf.query_buckets(spring_mid_caps).size() << " buckets\n\n";

    // A workload of square range queries at the paper's r = 0.01.
    pgf::Rng qrng(9);
    auto workload = pgf::collect_query_buckets(
        gf, pgf::square_queries(ds.domain, 0.01, n_queries, qrng));

    pgf::Declusterer declusterer(gf.structure());
    pgf::TextTable table({"method", "avg response", "optimal", "data balance",
                          "closest pairs"});
    for (pgf::Method m : pgf::all_methods()) {
        pgf::DeclusterReport report = declusterer.run(m, disks, {.seed = 21});
        pgf::WorkloadStats stats =
            pgf::evaluate_workload(workload, report.assignment);
        table.add(pgf::to_string(m), pgf::format_double(stats.avg_response),
                  pgf::format_double(stats.optimal),
                  pgf::format_double(report.data_balance),
                  report.closest_pairs);
    }
    table.print(std::cout);
    std::cout << "\n(avg response = mean over " << n_queries
              << " queries of the max buckets fetched from any one of "
              << disks << " disks)\n";
    return 0;
} catch (const pgf::UsageError& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
}

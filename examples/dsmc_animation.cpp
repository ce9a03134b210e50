// dsmc_animation — the paper's motivating scenario end to end: a
// time-dependent particle simulation dumps periodic snapshots into a 4-d
// (t, x, y, z) parallel grid file; an analyst then animates the volume,
// which turns into a stream of range queries against a shared-nothing
// cluster.
//
//   $ ./dsmc_animation [--nodes 8] [--snapshots 12] [--particles 20000]
//                      [--ratio 0.1] [--method minimax]
#include <iostream>

#include "pgf/core/declusterer.hpp"
#include "pgf/parallel/pgf_server.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/table.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

int main(int argc, char** argv) {
    pgf::Cli cli(argc, argv);
    if (!cli.check_flags(
            {"nodes", "snapshots", "particles", "ratio", "method"})) {
        return 2;
    }
    const auto nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 8));
    const auto snapshots =
        static_cast<std::size_t>(cli.get_int("snapshots", 12));
    const auto particles =
        static_cast<std::size_t>(cli.get_int("particles", 20000));
    const double ratio = cli.get_double("ratio", 0.1);
    const std::string method_name = cli.get_string("method", "minimax");
    auto method = pgf::parse_method(method_name);
    if (!method) {
        std::cerr << "unknown method '" << method_name << "'\n";
        return 1;
    }

    std::cout << "simulating " << snapshots << " DSMC snapshots x "
              << particles << " particles...\n";
    pgf::Rng rng(3);
    pgf::Dataset<4> ds = pgf::make_dsmc4d(rng, snapshots, particles);
    pgf::GridFile<4> gf = ds.build();
    auto shape = gf.grid_shape();
    std::cout << "grid file: " << gf.record_count() << " records, "
              << gf.bucket_count() << " buckets, grid " << shape[0] << "x"
              << shape[1] << "x" << shape[2] << "x" << shape[3] << "\n";

    pgf::Assignment assignment =
        pgf::decluster(gf.structure(), *method, nodes, {.seed = 17});
    pgf::ClusterConfig cfg;
    cfg.nodes = nodes;
    pgf::ParallelGridFileServer<4> server(gf, assignment, cfg);

    auto queries = pgf::animation_queries(ds.domain, snapshots, ratio);
    std::cout << "animating: " << queries.size() << " range queries ("
              << pgf::to_string(*method) << " declustering, " << nodes
              << " nodes)\n";
    pgf::BatchResult r = server.execute(queries);

    pgf::TextTable table({"metric", "value"});
    table.add("queries", r.queries);
    table.add("response blocks (sum of max/disk)", r.response_blocks);
    table.add("total blocks touched", r.total_blocks);
    table.add("records shipped to coordinator", r.records_returned);
    table.add("physical disk reads", r.physical_reads);
    table.add("block cache hits", r.cache_hits);
    table.add("communication time (s)", pgf::format_double(r.comm_time_s));
    table.add("elapsed simulated time (s)", pgf::format_double(r.elapsed_s));
    table.print(std::cout);

    double frames_per_sec =
        static_cast<double>(snapshots) / (r.elapsed_s > 0 ? r.elapsed_s : 1);
    std::cout << "animation rate: " << pgf::format_double(frames_per_sec)
              << " frames/s of simulated wall-clock\n";
    return 0;
}

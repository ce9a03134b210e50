// persistence — build a paged grid file once, keep it on disk, reopen it
// from its catalog and query: the life cycle of a grid file between
// analysis sessions.
//
//   $ ./persistence [--path /tmp/pgf_example.pgf] [--points 20000]
#include <filesystem>
#include <iostream>

#include "pgf/core/declusterer.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/table.hpp"
#include "pgf/workload/datasets.hpp"

int main(int argc, char** argv) {
    pgf::Cli cli(argc, argv);
    if (!cli.check_flags({"path", "points"})) return 2;
    const std::string path = cli.get_string(
        "path",
        (std::filesystem::temp_directory_path() / "pgf_example.pgf").string());
    const auto points = static_cast<std::size_t>(cli.get_int("points", 20000));
    using File = pgf::PagedGridFile<3>;

    // Session 1: build the file one bucket per page; flush() writes the
    // pages and, after the last one, the catalog a reopen reads.
    {
        pgf::Rng rng(13);
        pgf::Dataset<3> ds = pgf::make_dsmc3d(rng, points);
        File::Config config;
        config.page_size =
            pgf::PagedBucketStore<3>::page_size_for(ds.bucket_capacity);
        File gf(path, ds.domain, config);
        gf.bulk_load(ds.points);
        gf.flush();
        std::cout << "session 1: built " << gf.bucket_count()
                  << " buckets from " << gf.record_count()
                  << " particles, flushed " << gf.bucket_count()
                  << " pages (" << std::filesystem::file_size(path) / 1024
                  << " KiB) to " << path << "\n";
    }

    // Session 2 (possibly weeks later): reopen, decluster, query, extend.
    File gf(File::OpenTag{}, path);
    std::cout << "session 2: reopened " << gf.record_count() << " records, "
              << gf.bucket_count() << " buckets\n";

    pgf::Declusterer dec(gf.structure());
    auto report = dec.run(pgf::Method::kMinimax, 8, {.seed = 99});
    std::cout << "declustered over 8 disks: balance = "
              << pgf::format_double(report.data_balance)
              << ", closest pairs on one disk = " << report.closest_pairs
              << "\n";

    pgf::Rect<3> probe{{{0.40, 0.30, 0.30}}, {{0.60, 0.70, 0.70}}};
    auto hits = gf.query_records(probe);
    std::cout << "probe query around the compression front: " << hits.size()
              << " particles from " << gf.query_buckets(probe).size()
              << " buckets\n";

    // The reopened file is fully mutable: append a fresh burst of particles
    // and flush again, which rewrites the catalog.
    pgf::Rng rng(17);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        gf.insert({{rng.uniform(), rng.uniform(), rng.uniform()}},
                  1000000 + i);
    }
    gf.flush();
    std::cout << "appended 5000 records and flushed again ("
              << gf.record_count() << " total)\n";
    std::filesystem::remove(path);
    return 0;
}

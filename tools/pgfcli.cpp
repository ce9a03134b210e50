// pgfcli — command-line front end over the pgf library.
//
//   pgfcli gen --dataset hot2d --out pts.csv [--points N] [--seed S]
//              [--format csv|bin]
//       Generate one of the built-in datasets as CSV (or as the binary
//       point-file format pgf/core/point_source.hpp defines, for buildx).
//   pgfcli build --input pts.csv --out store.pgf [--capacity 56]
//       Load a CSV of points (1-4 numeric columns) into a grid file and
//       persist it. The domain is the data's bounding box.
//   pgfcli buildx --dataset uniform2d --points N --out store.pgf
//                 [--input pts.bin] [--seed S] [--capacity 56]
//                 [--pool-pages 1024] [--chunk-records 1048576]
//                 [--threads 0] [--wal store.wal]
//                 [--crash-after-writes N]
//       Out-of-core build: stream the points (generated on the fly, or
//       from a binary point file written by `gen --format bin`), sort them
//       externally along the Hilbert curve (runs spilled to temp files,
//       k-way merged), and bulk-load the sorted stream into a disk-backed
//       grid file whose memory is bounded by --pool-pages. The persisted
//       snapshot is byte-compatible with `build`'s and validates the same
//       way. Scales to 10^7-10^8 records without materializing them.
//       With --wal the working paged file journals every operation to a
//       write-ahead log and is kept next to the snapshot (as
//       <out>.staging) so `recover` can reopen it; --crash-after-writes N
//       injects a torn-page crash at the Nth page write after setup (the
//       process exits with code 9 and leaves the crash state behind —
//       durability-test hook).
//   pgfcli recover --file store.pgf.staging --wal store.wal
//                  [--level fast|standard|deep] [--pool-pages 128]
//       Crash recovery: replays the committed prefix of the write-ahead
//       log over the paged data file (torn tail truncated, uncommitted
//       suffix discarded), rebuilds the access structure, reports what the
//       replay did, and audits the recovered file. Exit 0 = recovered and
//       clean, 1 = unrecoverable or audit findings.
//   pgfcli info --file store.pgf
//       Structural summary of a persisted grid file.
//   pgfcli query --file store.pgf --lo "x,y" --hi "x,y" [--print]
//       Range query; prints the match count (and rows with --print).
//   pgfcli decluster --file store.pgf --disks 16 [--method minimax]
//                    [--out assignment.csv]
//       Decluster the file's buckets and report the quality metrics; the
//       optional CSV maps bucket id -> disk.
//   pgfcli partition --file store.pgf --disks 16 --out prefix
//                    [--method minimax] [--page-size 4096]
//       Full deployment: decluster, rebuild the records as one-bucket-per-
//       page stores, and write one page file per disk (prefix.disk<k>).
//   pgfcli validate --file store.pgf [--level fast|standard|deep]
//                   [--backend memory|paged] [--page-size N]
//                   [--assignment a.csv --disks M]
//       Runs the pgf::analysis invariant checkers over a persisted grid
//       file (and optionally a bucket->disk assignment CSV as written by
//       `decluster --out`). With --backend paged the records are also
//       rebuilt in a temporary disk-backed grid file and the page-level
//       checkers (page ownership, scale reconstruction, header/roundtrip)
//       run against it. Exit 0 = clean, 1 = findings or unreadable.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "pgf/analysis/grid_file_audit.hpp"
#include "pgf/analysis/paged_audit.hpp"
#include "pgf/analysis/validate.hpp"
#include "pgf/core/declusterer.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/storage/fault_injection.hpp"
#include "pgf/storage/gridfile_io.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/storage/partition.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/points_io.hpp"
#include "pgf/util/table.hpp"
#include "pgf/util/thread_pool.hpp"
#include "pgf/workload/datasets.hpp"

namespace {

using namespace pgf;

int usage() {
    std::cerr << "usage: pgfcli "
                 "<gen|build|buildx|recover|info|query|decluster|partition|"
                 "validate> [flags]\n"
              << "run with a command and no flags for its required flags\n";
    return 2;
}

std::vector<double> parse_tuple(const std::string& text, std::size_t dims) {
    std::vector<double> values;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos) end = text.size();
        values.push_back(std::strtod(text.substr(start, end - start).c_str(),
                                     nullptr));
        start = end + 1;
    }
    PGF_CHECK(values.size() == dims,
              "expected " + std::to_string(dims) + " comma-separated values "
              "in '" + text + "'");
    return values;
}

int cmd_gen(const Cli& cli) {
    std::string name = cli.get_string("dataset", "");
    std::string out = cli.get_string("out", "");
    if (name.empty() || out.empty()) {
        std::cerr << "gen requires --dataset <name> --out <csv>\n"
                  << "datasets: uniform2d hot2d correl2d dsmc3d stock3d "
                  << "mhd3d\n";
        return 2;
    }
    const std::string format = cli.get_string("format", "csv");
    if (format != "csv" && format != "bin") {
        std::cerr << "unknown --format '" << format
                  << "' (expected csv|bin)\n";
        return 2;
    }
    Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    auto n = static_cast<std::size_t>(cli.get_int("points", 0));
    std::vector<std::vector<double>> rows;
    auto emit2 = [&](const Dataset<2>& ds) {
        for (const auto& p : ds.points) rows.push_back({p[0], p[1]});
    };
    auto emit3 = [&](const Dataset<3>& ds) {
        for (const auto& p : ds.points) rows.push_back({p[0], p[1], p[2]});
    };
    if (name == "uniform2d") {
        emit2(make_uniform2d(rng, n ? n : 10000));
    } else if (name == "hot2d") {
        emit2(make_hotspot2d(rng, n ? n : 10000));
    } else if (name == "correl2d") {
        emit2(make_correl2d(rng, n ? n : 10000));
    } else if (name == "dsmc3d") {
        emit3(make_dsmc3d(rng, n ? n : 52857));
    } else if (name == "stock3d") {
        emit3(make_stock3d(rng, n ? n : 127026));
    } else if (name == "mhd3d") {
        emit3(make_mhd3d(rng, n ? n : 60000));
    } else {
        std::cerr << "unknown dataset '" << name << "'\n";
        return 2;
    }
    if (format == "bin") {
        auto write_bin = [&]<std::size_t D>() {
            std::vector<Point<D>> pts(rows.size());
            for (std::size_t r = 0; r < rows.size(); ++r) {
                for (std::size_t i = 0; i < D; ++i) pts[r][i] = rows[r][i];
            }
            write_binary_points<D>(out, std::span<const Point<D>>(pts));
        };
        if (rows.front().size() == 2) {
            write_bin.template operator()<2>();
        } else {
            write_bin.template operator()<3>();
        }
    } else {
        write_csv_points(out, rows);
    }
    std::cout << "wrote " << rows.size() << " points to " << out << "\n";
    return 0;
}

template <std::size_t D>
int build_impl(const std::vector<std::vector<double>>& rows,
               const std::string& out, std::size_t capacity) {
    Rect<D> domain;
    for (std::size_t i = 0; i < D; ++i) {
        domain.lo[i] = rows.front()[i];
        domain.hi[i] = rows.front()[i];
    }
    for (const auto& row : rows) {
        for (std::size_t i = 0; i < D; ++i) {
            domain.lo[i] = std::min(domain.lo[i], row[i]);
            domain.hi[i] = std::max(domain.hi[i], row[i]);
        }
    }
    for (std::size_t i = 0; i < D; ++i) {
        // Half-open domain: pad the upper bound so max points stay inside.
        double span = domain.hi[i] - domain.lo[i];
        domain.hi[i] += span > 0 ? span * 1e-9 : 1.0;
    }
    typename GridFile<D>::Config cfg;
    cfg.bucket_capacity = capacity;
    GridFile<D> gf(domain, cfg);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        Point<D> p;
        for (std::size_t i = 0; i < D; ++i) p[i] = rows[r][i];
        gf.insert(p, r);
    }
    std::uint64_t pages = save_grid_file(gf, out);
    std::cout << "built " << gf.record_count() << " records into "
              << gf.bucket_count() << " buckets ("
              << gf.merged_bucket_count() << " merged), saved " << pages
              << " pages to " << out << "\n";
    return 0;
}

int cmd_build(const Cli& cli) {
    std::string input = cli.get_string("input", "");
    std::string out = cli.get_string("out", "");
    if (input.empty() || out.empty()) {
        std::cerr << "build requires --input <csv> --out <pgf>\n";
        return 2;
    }
    auto rows = read_csv_points(input);
    PGF_CHECK(!rows.empty(), "no points in " + input);
    auto capacity = static_cast<std::size_t>(cli.get_int("capacity", 56));
    switch (rows.front().size()) {
        case 1: return build_impl<1>(rows, out, capacity);
        case 2: return build_impl<2>(rows, out, capacity);
        case 3: return build_impl<3>(rows, out, capacity);
        case 4: return build_impl<4>(rows, out, capacity);
        default:
            std::cerr << "only 1-4 dimensions supported (got "
                      << rows.front().size() << " columns)\n";
            return 2;
    }
}

/// Dimensionality recorded in a binary point file (for buildx dispatch).
std::uint32_t binary_points_dims(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    PGF_CHECK(in.good(), "cannot open " + path);
    char magic[8] = {};
    in.read(magic, 8);
    PGF_CHECK(in.good() && std::string(magic, 8) ==
                               std::string(binary_points::kMagic, 8),
              "not a binary point file: " + path);
    return static_cast<std::uint32_t>(binary_points::read_u64le(in));
}

/// Bounding box of a binary point file, streamed in bounded blocks (the
/// out-of-core build never materializes the input). The upper bound is
/// padded the same way `build` pads it, so max points stay inside the
/// half-open domain.
template <std::size_t D>
Rect<D> binary_points_bbox(const std::string& path) {
    BinaryFilePointSource<D> src(path);
    PGF_CHECK(src.remaining() > 0, "no points in " + path);
    Rect<D> box;
    std::vector<Point<D>> block(1 << 14);
    bool first = true;
    for (;;) {
        const std::size_t got =
            src.next(std::span<Point<D>>(block.data(), block.size()));
        if (got == 0) break;
        for (std::size_t k = 0; k < got; ++k) {
            for (std::size_t i = 0; i < D; ++i) {
                if (first) {
                    box.lo[i] = box.hi[i] = block[k][i];
                } else {
                    box.lo[i] = std::min(box.lo[i], block[k][i]);
                    box.hi[i] = std::max(box.hi[i], block[k][i]);
                }
            }
            first = false;
        }
    }
    for (std::size_t i = 0; i < D; ++i) {
        const double span = box.hi[i] - box.lo[i];
        box.hi[i] += span > 0 ? span * 1e-9 : 1.0;
    }
    return box;
}

/// The out-of-core build: external Hilbert sort of the stream, then the
/// batched streaming bulk load into a pool-bounded paged grid file, then
/// the regular snapshot save (so `info`/`query`/`validate` all work on
/// the result).
template <std::size_t D>
int buildx_impl(const Cli& cli, PointSource<D>& source, const Rect<D>& domain,
                std::size_t capacity, const std::string& out) {
    extsort::ExtSortConfig cfg;
    cfg.chunk_records =
        static_cast<std::size_t>(cli.get_int("chunk-records", 1 << 20));
    const auto threads =
        static_cast<unsigned>(cli.get_int("threads", 0));
    ThreadPool pool(threads);
    cfg.pool = &pool;

    extsort::ExtSorter<D> sorter(source, domain, cfg);

    typename PagedGridFile<D>::Config pcfg;
    pcfg.page_size = PagedBucketStore<D>::page_size_for(capacity);
    pcfg.pool_pages =
        static_cast<std::size_t>(cli.get_int("pool-pages", 1024));
    pcfg.wal_path = cli.get_string("wal", "");
    FaultInjector injector;
    const long long crash_after =
        static_cast<long long>(cli.get_int("crash-after-writes", -1));
    if (crash_after >= 0) {
        PGF_CHECK(!pcfg.wal_path.empty(),
                  "buildx: --crash-after-writes requires --wal");
        pcfg.fault_injector = &injector;
    }
    const std::string staging = out + ".staging";
    std::uint64_t loaded = 0;
    std::uint64_t pages = 0;
    std::uint32_t buckets = 0;
    {
        PagedGridFile<D> pf(staging, domain, pcfg);
        // Setup (superblock, genesis, root bucket) is not crash-protected,
        // like a real system's mkfs; arm the injector only now.
        if (crash_after >= 0) {
            injector.arm(static_cast<std::uint64_t>(crash_after));
        }
        try {
            loaded = pf.bulk_load_stream(sorter);
            pf.flush();
        } catch (const CrashError& e) {
            std::cerr << "crash injected: " << e.what() << "\n"
                      << "crash state kept in " << staging << " + "
                      << pcfg.wal_path << " (run `pgfcli recover`)\n";
            return 9;
        }
        buckets = static_cast<std::uint32_t>(pf.bucket_count());
        pages = save_grid_file(pf, out);
    }
    if (pcfg.wal_path.empty()) {
        std::remove(staging.c_str());
    } else {
        std::cout << "durable paged file kept at " << staging << " (wal "
                  << pcfg.wal_path << ")\n";
    }

    const auto& stats = sorter.stats();
    std::cout << "built " << loaded << " records into " << buckets
              << " buckets via " << stats.initial_runs << " sorted runs ("
              << stats.spill_bytes << " spill bytes, " << stats.merge_passes
              << " merge passes, fan-in " << stats.final_fan_in
              << "), saved " << pages << " pages to " << out << "\n";
    return 0;
}

int cmd_buildx(const Cli& cli) {
    const std::string out = cli.get_string("out", "");
    const std::string input = cli.get_string("input", "");
    const std::string dataset = cli.get_string("dataset", "");
    if (out.empty() || (input.empty() && dataset.empty())) {
        std::cerr << "buildx requires --out <pgf> and either --dataset "
                     "<name> --points N or --input <bin>\n"
                  << "datasets: uniform2d hot2d dsmc3d\n";
        return 2;
    }
    auto capacity = static_cast<std::size_t>(cli.get_int("capacity", 56));
    if (!input.empty()) {
        switch (binary_points_dims(input)) {
            case 2: {
                BinaryFilePointSource<2> src(input);
                return buildx_impl<2>(cli, src, binary_points_bbox<2>(input),
                                      capacity, out);
            }
            case 3: {
                BinaryFilePointSource<3> src(input);
                return buildx_impl<3>(cli, src, binary_points_bbox<3>(input),
                                      capacity, out);
            }
            default:
                std::cerr << "only 2-d and 3-d binary point files "
                             "supported\n";
                return 2;
        }
    }
    Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    const auto n =
        static_cast<std::uint64_t>(cli.get_int("points", 1000000));
    if (dataset == "uniform2d") {
        StreamDataset<2> ds = make_uniform2d_stream(rng, n);
        return buildx_impl<2>(cli, *ds.source, ds.domain, capacity, out);
    }
    if (dataset == "hot2d") {
        StreamDataset<2> ds = make_hotspot2d_stream(rng, n);
        return buildx_impl<2>(cli, *ds.source, ds.domain, capacity, out);
    }
    if (dataset == "dsmc3d") {
        StreamDataset<3> ds = make_dsmc3d_stream(rng, n);
        return buildx_impl<3>(cli, *ds.source, ds.domain, capacity, out);
    }
    std::cerr << "unknown dataset '" << dataset
              << "' (streaming datasets: uniform2d hot2d dsmc3d)\n";
    return 2;
}

/// Crash recovery: replay the committed WAL prefix over the paged data
/// file, then audit the result. The recovered file is left ready for new
/// operations (its log stays open until this process exits).
template <std::size_t D>
int recover_impl(const Cli& cli, const std::string& file,
                 const std::string& wal) {
    analysis::ValidationLevel level = analysis::ValidationLevel::kDeep;
    const std::string level_text = cli.get_string("level", "deep");
    if (!analysis::parse_validation_level(level_text, &level)) {
        std::cerr << "unknown --level '" << level_text
                  << "' (expected fast|standard|deep)\n";
        return 2;
    }
    typename PagedGridFile<D>::Config cfg;
    cfg.wal_path = wal;
    cfg.pool_pages =
        static_cast<std::size_t>(cli.get_int("pool-pages", 128));
    PagedGridFile<D> gf(typename PagedGridFile<D>::RecoverTag{}, file, cfg);

    const ReplayStats& st = gf.recovery_stats();
    TextTable t({"metric", "value"});
    t.add("wal records (valid prefix)", st.wal_records);
    t.add("applied (committed)", st.applied_records);
    t.add("discarded (uncommitted)", st.discarded_records);
    t.add("pages replayed", st.pages_replayed);
    t.add("pages already durable", st.pages_skipped);
    t.add("last commit lsn", st.last_commit_lsn);
    t.add("records", gf.record_count());
    t.add("buckets", gf.bucket_count());
    t.print(std::cout);

    analysis::ValidationReport report =
        analysis::audit_paged_grid_file(gf, level);
    std::cout << report.summary() << "\n";
    if (!report.ok()) {
        std::cerr << "recover: replay succeeded but the recovered file "
                     "fails "
                  << report.findings.size() << " invariant check(s)\n";
        return 1;
    }
    std::cout << "recover: OK (" << report.checks_run
              << " checks at level " << analysis::to_string(level) << ")\n";
    return 0;
}

int cmd_recover(const Cli& cli) {
    const std::string file = cli.get_string("file", "");
    const std::string wal = cli.get_string("wal", "");
    if (file.empty() || wal.empty()) {
        std::cerr << "recover requires --file <paged data file> "
                     "--wal <log> [--level deep]\n";
        return 2;
    }
    switch (wal_probe_dims(wal)) {
        case 1: return recover_impl<1>(cli, file, wal);
        case 2: return recover_impl<2>(cli, file, wal);
        case 3: return recover_impl<3>(cli, file, wal);
        case 4: return recover_impl<4>(cli, file, wal);
        default:
            std::cerr << "unsupported dimensionality in " << wal << "\n";
            return 2;
    }
}

template <std::size_t D>
int info_impl(const std::string& file) {
    GridFile<D> gf = load_grid_file<D>(file);
    TextTable t({"property", "value"});
    t.add("dimensions", D);
    t.add("records", gf.record_count());
    t.add("buckets", gf.bucket_count());
    t.add("merged buckets", gf.merged_bucket_count());
    t.add("bucket capacity", gf.config().bucket_capacity);
    std::string shape;
    for (std::size_t i = 0; i < D; ++i) {
        if (i) shape += "x";
        shape += std::to_string(gf.grid_shape()[i]);
    }
    t.add("grid", shape);
    for (std::size_t i = 0; i < D; ++i) {
        t.add("axis " + std::to_string(i),
              format_double(gf.domain().lo[i], 4, true) + " .. " +
                  format_double(gf.domain().hi[i], 4, true));
    }
    t.print(std::cout);
    return 0;
}

template <std::size_t D>
int query_impl(const Cli& cli, const std::string& file) {
    GridFile<D> gf = load_grid_file<D>(file);
    auto lo = parse_tuple(cli.get_string("lo", ""), D);
    auto hi = parse_tuple(cli.get_string("hi", ""), D);
    Rect<D> q;
    for (std::size_t i = 0; i < D; ++i) {
        q.lo[i] = lo[i];
        q.hi[i] = hi[i];
    }
    auto buckets = gf.query_buckets(q);
    auto records = gf.query_records(q);
    std::cout << records.size() << " records from " << buckets.size()
              << " buckets\n";
    if (cli.get_bool("print", false)) {
        for (const auto& r : records) {
            std::cout << r.id;
            for (std::size_t i = 0; i < D; ++i) std::cout << "," << r.point[i];
            std::cout << "\n";
        }
    }
    return 0;
}

template <std::size_t D>
int decluster_impl(const Cli& cli, const std::string& file) {
    GridFile<D> gf = load_grid_file<D>(file);
    auto method = parse_method(cli.get_string("method", "minimax"));
    if (!method) {
        std::cerr << "unknown method; try dm fx hcam mst ssp simgraph "
                  << "minimax\n";
        return 2;
    }
    auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 16));
    Declusterer dec(gf.structure());
    DeclusterReport report = dec.run(
        *method, disks,
        {.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1))});
    TextTable t({"metric", "value"});
    t.add("method", to_string(*method));
    t.add("disks", disks);
    t.add("data balance", format_double(report.data_balance));
    t.add("area balance", format_double(report.area_balance));
    t.add("closest pairs on one disk", report.closest_pairs);
    t.print(std::cout);
    std::string out = cli.get_string("out", "");
    if (!out.empty()) {
        TextTable a({"bucket", "disk"});
        for (std::size_t b = 0; b < report.assignment.disk_of.size(); ++b) {
            a.add(b, report.assignment.disk_of[b]);
        }
        PGF_CHECK(a.write_csv(out), "cannot write " + out);
        std::cout << "assignment written to " << out << "\n";
    }
    return 0;
}

template <std::size_t D>
int partition_impl(const Cli& cli, const std::string& file) {
    std::string out = cli.get_string("out", "");
    if (out.empty()) {
        std::cerr << "partition requires --out <prefix>\n";
        return 2;
    }
    GridFile<D> gf = load_grid_file<D>(file);
    auto method = parse_method(cli.get_string("method", "minimax"));
    if (!method) {
        std::cerr << "unknown method\n";
        return 2;
    }
    auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 16));

    // Rebuild the records in a one-bucket-per-page store (same insertion
    // order, so the structure matches the snapshot's behavior closely).
    std::string staging = out + ".staging";
    typename PagedGridFile<D>::Config cfg;
    cfg.page_size = static_cast<std::size_t>(cli.get_int("page-size", 4096));
    PagedGridFile<D> paged(staging, gf.domain(), cfg);
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        for (const auto& rec : gf.bucket(b).records) {
            paged.insert(rec.point, rec.id);
        }
    }
    paged.flush();

    Assignment assignment = decluster(
        paged.structure(), *method, disks,
        {.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1))});
    std::vector<std::uint64_t> pages;
    for (std::uint32_t b = 0; b < paged.bucket_count(); ++b) {
        pages.push_back(paged.bucket_page(b));
    }
    PartitionResult result =
        partition_pages(staging, pages, assignment, out);
    std::remove(staging.c_str());

    TextTable t({"disk", "file", "pages"});
    for (std::uint32_t d = 0; d < disks; ++d) {
        t.add(d, result.paths[d], result.pages_per_disk[d]);
    }
    t.print(std::cout);
    std::cout << paged.bucket_count() << " buckets ("
              << paged.record_count() << " records) partitioned with "
              << to_string(*method) << "\n";
    return 0;
}

/// Reads a bucket->disk CSV (as written by `decluster --out`): optional
/// header line, then "bucket,disk" rows. Buckets the CSV never names stay
/// unassigned, which the audit reports.
Assignment read_assignment_csv(const std::string& path,
                               std::uint32_t num_disks) {
    std::ifstream in(path);
    PGF_CHECK(in.good(), "cannot open assignment CSV " + path);
    Assignment a;
    a.num_disks = num_disks;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::size_t comma = line.find(',');
        if (comma == std::string::npos) continue;
        char* end = nullptr;
        const std::string bucket_text = line.substr(0, comma);
        std::uint64_t bucket = std::strtoull(bucket_text.c_str(), &end, 10);
        if (end == bucket_text.c_str()) continue;  // header or junk row
        std::uint64_t disk =
            std::strtoull(line.c_str() + comma + 1, nullptr, 10);
        if (bucket >= a.disk_of.size()) {
            a.disk_of.resize(bucket + 1, ~std::uint32_t{0});
        }
        a.disk_of[bucket] = static_cast<std::uint32_t>(disk);
    }
    // A truncated CSV stays shorter than the structure (the audit flags the
    // size mismatch); don't pad it into looking complete.
    return a;
}

template <std::size_t D>
int validate_impl(const Cli& cli, const std::string& file) {
    analysis::ValidationLevel level = analysis::ValidationLevel::kDeep;
    const std::string level_text = cli.get_string("level", "deep");
    if (!analysis::parse_validation_level(level_text, &level)) {
        std::cerr << "unknown --level '" << level_text
                  << "' (expected fast|standard|deep)\n";
        return 2;
    }

    const std::string backend = cli.get_string("backend", "memory");
    if (backend != "memory" && backend != "paged") {
        std::cerr << "unknown --backend '" << backend
                  << "' (expected memory|paged)\n";
        return 2;
    }

    GridFile<D> gf = load_grid_file<D>(file);
    analysis::ValidationReport report = analysis::audit_grid_file(gf, level);
    GridStructure gs = gf.structure();
    report.merge(analysis::audit_structure(gs, level));

    if (backend == "paged") {
        if (gf.oversized_bucket_count() > 0) {
            std::cerr << "validate: snapshot has oversized buckets "
                         "(inseparable duplicates) — the strict-capacity "
                         "paged backend cannot hold them\n";
            return 1;
        }
        // Rebuild the snapshot's records in a disk-backed file (bucket
        // order, page capacity matching the snapshot's bucket capacity by
        // default) and run the page-level checkers against it.
        const std::size_t default_page = PagedBucketStore<D>::page_size_for(
            gf.config().bucket_capacity);
        typename PagedGridFile<D>::Config cfg;
        cfg.page_size = static_cast<std::size_t>(
            cli.get_int("page-size", static_cast<long long>(default_page)));
        cfg.pool_pages =
            static_cast<std::size_t>(cli.get_int("pool-pages", 128));
        cfg.split_policy = gf.config().split_policy;
        const std::string staging = file + ".paged-validate";
        {
            PagedGridFile<D> paged(staging, gf.domain(), cfg);
            for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
                for (const auto& rec : gf.bucket(b).records) {
                    paged.insert(rec.point, rec.id);
                }
            }
            paged.flush();
            report.merge(analysis::audit_paged_grid_file(paged, level));
            report.require(paged.record_count() == gf.record_count(),
                           "paged.records.total",
                           "paged rebuild lost or duplicated records");
            std::cout << "paged backend: rebuilt " << paged.record_count()
                      << " records in " << paged.bucket_count()
                      << " page buckets (page size " << cfg.page_size
                      << ")\n";
            const BufferPool::Stats stats = paged.pool().stats();
            std::cout << "paged pool: " << stats.hits << " hits / "
                      << stats.misses << " misses (hit rate "
                      << format_double(stats.hit_rate(), 3) << "), "
                      << stats.evictions << " evictions, "
                      << stats.writebacks << " writebacks\n";
        }
        std::remove(staging.c_str());
    }

    std::string assignment_csv = cli.get_string("assignment", "");
    if (!assignment_csv.empty()) {
        auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 0));
        if (disks == 0) {
            std::cerr << "validate --assignment requires --disks <M>\n";
            return 2;
        }
        Assignment a = read_assignment_csv(assignment_csv, disks);
        report.merge(analysis::audit_assignment(gs, a, level));
    }

    std::cout << report.summary() << "\n";
    if (!report.ok()) {
        std::cerr << "validate: " << report.findings.size()
                  << " invariant violation(s) in " << file << "\n";
        return 1;
    }
    std::cout << "validate: OK (" << report.checks_run << " checks at level "
              << analysis::to_string(level) << ")\n";
    return 0;
}

int cmd_partition(const Cli& cli) {
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "partition requires --file <pgf> --out <prefix>\n";
        return 2;
    }
    switch (stored_grid_file_dims(file)) {
        case 1: return partition_impl<1>(cli, file);
        case 2: return partition_impl<2>(cli, file);
        case 3: return partition_impl<3>(cli, file);
        case 4: return partition_impl<4>(cli, file);
        default: std::cerr << "unsupported dimensionality\n"; return 2;
    }
}

template <int (*Fn2)(const Cli&, const std::string&),
          int (*Fn3)(const Cli&, const std::string&),
          int (*Fn4)(const Cli&, const std::string&),
          int (*Fn1)(const Cli&, const std::string&)>
int dispatch_dims(const Cli& cli, const std::string& file) {
    switch (stored_grid_file_dims(file)) {
        case 1: return Fn1(cli, file);
        case 2: return Fn2(cli, file);
        case 3: return Fn3(cli, file);
        case 4: return Fn4(cli, file);
        default:
            std::cerr << "unsupported dimensionality in " << file << "\n";
            return 2;
    }
}

int cmd_validate(const Cli& cli) {
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "validate requires --file <pgf> [--level deep] "
                     "[--backend memory|paged] [--page-size N] "
                     "[--assignment a.csv --disks M]\n";
        return 2;
    }
    return dispatch_dims<validate_impl<2>, validate_impl<3>,
                         validate_impl<4>, validate_impl<1>>(cli, file);
}

int cmd_info(const Cli& cli) {
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "info requires --file <pgf>\n";
        return 2;
    }
    switch (stored_grid_file_dims(file)) {
        case 1: return info_impl<1>(file);
        case 2: return info_impl<2>(file);
        case 3: return info_impl<3>(file);
        case 4: return info_impl<4>(file);
        default: std::cerr << "unsupported dimensionality\n"; return 2;
    }
}

int cmd_query(const Cli& cli) {
    std::string file = cli.get_string("file", "");
    if (file.empty() || !cli.has("lo") || !cli.has("hi")) {
        std::cerr << "query requires --file <pgf> --lo \"..\" --hi \"..\"\n";
        return 2;
    }
    return dispatch_dims<query_impl<2>, query_impl<3>, query_impl<4>,
                         query_impl<1>>(cli, file);
}

int cmd_decluster(const Cli& cli) {
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "decluster requires --file <pgf> [--disks M]\n";
        return 2;
    }
    return dispatch_dims<decluster_impl<2>, decluster_impl<3>,
                         decluster_impl<4>, decluster_impl<1>>(cli, file);
}

}  // namespace

int main(int argc, char** argv) {
    pgf::Cli cli(argc, argv);
    if (cli.positional().empty()) return usage();
    const std::string& command = cli.positional().front();
    try {
        if (command == "gen") return cmd_gen(cli);
        if (command == "build") return cmd_build(cli);
        if (command == "buildx") return cmd_buildx(cli);
        if (command == "recover") return cmd_recover(cli);
        if (command == "info") return cmd_info(cli);
        if (command == "query") return cmd_query(cli);
        if (command == "decluster") return cmd_decluster(cli);
        if (command == "partition") return cmd_partition(cli);
        if (command == "validate") return cmd_validate(cli);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}

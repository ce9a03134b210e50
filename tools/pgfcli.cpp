// pgfcli — command-line front end over the pgf library.
//
// Every grid file pgfcli writes is a paged grid file (one bucket per page,
// pgf/storage/paged_grid_file.hpp) whose catalog, written after the last
// page, lets every other command reopen it.
//
//   pgfcli gen --dataset hot2d --out pts.csv [--points N] [--seed S]
//              [--format csv|bin]
//       Generate one of the built-in datasets as CSV (or as the binary
//       point-file format pgf/core/point_source.hpp defines, for buildx).
//   pgfcli build --input pts.csv --out store.pgf [--capacity 56]
//       Load a CSV of points (1-4 numeric columns) into a paged grid file
//       holding --capacity records per bucket page. The domain is the
//       data's bounding box.
//   pgfcli buildx --dataset uniform2d --points N --out store.pgf
//                 [--input pts.bin] [--seed S] [--capacity 56]
//                 [--pool-pages 1024] [--chunk-records 1048576]
//                 [--threads 0] [--wal store.wal]
//                 [--crash-after-writes N]
//       Out-of-core build: stream the points (generated on the fly, or
//       from a binary point file written by `gen --format bin`), sort them
//       externally along the Hilbert curve (runs spilled to temp files,
//       k-way merged), and bulk-load the sorted stream into the paged grid
//       file at --out, whose memory is bounded by --pool-pages. Scales to
//       10^7-10^8 records without materializing them. With --wal the file
//       journals every operation to a write-ahead log beside it, so
//       `recover` can replay a crash; --crash-after-writes N injects a
//       torn-page crash at the Nth page write after setup (the process
//       exits with code 9 and leaves the crash state behind —
//       durability-test hook).
//   pgfcli recover --file store.pgf --wal store.wal
//                  [--level fast|standard|deep] [--pool-pages 128]
//       Crash recovery: replays the committed prefix of the write-ahead
//       log over the paged data file (torn tail truncated, uncommitted
//       suffix discarded), rebuilds the access structure, reports what the
//       replay did, audits the recovered file, and flushes it so the other
//       commands can open it. Exit 0 = recovered and clean, 1 =
//       unrecoverable or audit findings.
//   pgfcli info --file store.pgf
//       Structural summary of a grid file.
//   pgfcli query --file store.pgf --lo "x,y" --hi "x,y" [--print]
//       Range query; prints the match count (and rows with --print).
//   pgfcli decluster --file store.pgf --disks 16 [--method minimax]
//                    [--seed S] [--out assignment.csv]
//       Decluster the file's buckets and report the quality metrics; the
//       optional CSV maps bucket id -> disk.
//   pgfcli partition --file store.pgf --disks 16 --out prefix
//                    [--method minimax] [--seed S]
//       Full deployment: decluster, then copy each bucket's page into one
//       page file per disk (prefix.disk<k>).
//   pgfcli validate --file store.pgf [--level fast|standard|deep]
//                   [--pool-pages 128] [--assignment a.csv --disks M]
//       Runs the pgf::analysis invariant checkers over a grid file — the
//       structure and the page-level checks (page ownership, scale
//       reconstruction, header/roundtrip) — and optionally over a
//       bucket->disk assignment CSV as written by `decluster --out`.
//       Exit 0 = clean, 1 = findings or unreadable.
//
// Exit codes of every command: 0 success, 1 error or audit findings,
// 2 usage (a missing or unknown flag), 3 I/O error (the operating system
// refused a file operation; the message names the operation, the path and
// the errno), 9 injected crash (buildx --crash-after-writes).
#include <array>
#include <fstream>
#include <iostream>
#include <string>

#include "pgf/analysis/grid_file_audit.hpp"
#include "pgf/analysis/paged_audit.hpp"
#include "pgf/analysis/validate.hpp"
#include "pgf/core/declusterer.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/storage/partition.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/file.hpp"
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
              << "run with a command and no flags for its required flags\n"
              << "exit codes: 0 ok, 1 error or findings, 2 usage, "
                 "3 I/O error, 9 injected crash\n";
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
    if (!cli.check_flags({"dataset", "out", "format", "seed", "points"})) {
        return 2;
    }
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
    std::vector<Point<D>> points(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t i = 0; i < D; ++i) points[r][i] = rows[r][i];
    }
    typename PagedGridFile<D>::Config cfg;
    cfg.page_size = PagedBucketStore<D>::page_size_for(capacity);
    PagedGridFile<D> gf(out, domain, cfg);
    VectorPointSource<D> source(points);
    gf.bulk_load_stream(source);
    gf.flush();
    std::cout << "built " << gf.record_count() << " records into "
              << gf.bucket_count() << " buckets ("
              << gf.merged_bucket_count() << " merged), wrote "
              << gf.bucket_count() << " pages to " << out << "\n";
    return 0;
}

int cmd_build(const Cli& cli) {
    if (!cli.check_flags({"input", "out", "capacity"})) return 2;
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
    FileReader in(path, binary_points::kHeaderBytes);
    return static_cast<std::uint32_t>(binary_points::read_header(in).first);
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
/// batched streaming bulk load into the pool-bounded paged grid file at
/// `out`, flushed so `info`/`query`/`validate` all open it.
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
    PagedGridFile<D> pf(out, domain, pcfg);
    // Setup (superblock, genesis, root bucket) is not crash-protected,
    // like a real system's mkfs; arm the injector only now.
    if (crash_after >= 0) {
        injector.arm(static_cast<std::uint64_t>(crash_after));
    }
    std::uint64_t loaded = 0;
    try {
        loaded = pf.bulk_load_stream(sorter);
        pf.flush();
    } catch (const CrashError& e) {
        std::cerr << "crash injected: " << e.what() << "\n"
                  << "crash state kept in " << out << " + "
                  << pcfg.wal_path << " (run `pgfcli recover`)\n";
        return 9;
    }

    const auto& stats = sorter.stats();
    std::cout << "built " << loaded << " records into " << pf.bucket_count()
              << " buckets via " << stats.initial_runs << " sorted runs ("
              << stats.spill_bytes << " spill bytes, " << stats.merge_passes
              << " merge passes, fan-in " << stats.final_fan_in
              << "), wrote " << pf.bucket_count() << " pages to " << out;
    if (!pcfg.wal_path.empty()) std::cout << " (wal " << pcfg.wal_path << ")";
    std::cout << "\n";
    return 0;
}

int cmd_buildx(const Cli& cli) {
    if (!cli.check_flags({"out", "input", "dataset", "points", "seed",
                          "capacity", "pool-pages", "chunk-records",
                          "threads", "wal", "crash-after-writes"})) {
        return 2;
    }
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
/// file, audit the result, and flush it (catalog included) so the other
/// commands can open it. The recovered file stays journaled on its log.
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
    gf.flush();
    std::cout << "recover: OK (" << report.checks_run
              << " checks at level " << analysis::to_string(level) << ")\n";
    return 0;
}

int cmd_recover(const Cli& cli) {
    if (!cli.check_flags({"file", "wal", "level", "pool-pages"})) return 2;
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
int info_impl(const Cli& /*cli*/, const std::string& file) {
    PagedGridFile<D> gf(typename PagedGridFile<D>::OpenTag{}, file);
    TextTable t({"property", "value"});
    t.add("dimensions", D);
    t.add("records", gf.record_count());
    t.add("buckets", gf.bucket_count());
    t.add("merged buckets", gf.merged_bucket_count());
    t.add("bucket capacity", gf.capacity());
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
    PagedGridFile<D> gf(typename PagedGridFile<D>::OpenTag{}, file);
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
    PagedGridFile<D> gf(typename PagedGridFile<D>::OpenTag{}, file);
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
    PagedGridFile<D> gf(typename PagedGridFile<D>::OpenTag{}, file);
    auto method = parse_method(cli.get_string("method", "minimax"));
    if (!method) {
        std::cerr << "unknown method\n";
        return 2;
    }
    auto disks = static_cast<std::uint32_t>(cli.get_int("disks", 16));
    Assignment assignment = decluster(
        gf.structure(), *method, disks,
        {.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1))});
    PartitionResult result = partition_pages(gf, assignment, out);

    TextTable t({"disk", "file", "pages"});
    for (std::uint32_t d = 0; d < disks; ++d) {
        t.add(d, result.paths[d], result.pages_per_disk[d]);
    }
    t.print(std::cout);
    std::cout << gf.bucket_count() << " buckets (" << gf.record_count()
              << " records) partitioned with " << to_string(*method) << "\n";
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

    PagedGridFile<D> gf(
        typename PagedGridFile<D>::OpenTag{}, file,
        static_cast<std::size_t>(cli.get_int("pool-pages", 128)));
    analysis::ValidationReport report =
        analysis::audit_paged_grid_file(gf, level);
    GridStructure gs = gf.structure();
    report.merge(analysis::audit_structure(gs, level));
    const BufferPool::Stats stats = gf.pool().stats();
    std::cout << "paged pool: " << stats.hits << " hits / " << stats.misses
              << " misses (hit rate " << format_double(stats.hit_rate(), 3)
              << "), " << stats.evictions << " evictions, "
              << stats.writebacks << " writebacks\n";

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

/// A command over an existing grid file, one instantiation per
/// dimension count.
using FileCommand = int (*)(const Cli&, const std::string&);

/// Runs the instantiation for the dimension count in `file`'s catalog.
int dispatch_dims(const Cli& cli, const std::string& file,
                  const std::array<FileCommand, 4>& by_dims) {
    const std::uint32_t dims = paged_file_dims(file);
    if (dims < 1 || dims > by_dims.size()) {
        std::cerr << "unsupported dimensionality in " << file << "\n";
        return 2;
    }
    return by_dims[dims - 1](cli, file);
}

int cmd_info(const Cli& cli) {
    if (!cli.check_flags({"file"})) return 2;
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "info requires --file <pgf>\n";
        return 2;
    }
    return dispatch_dims(
        cli, file, {info_impl<1>, info_impl<2>, info_impl<3>, info_impl<4>});
}

int cmd_query(const Cli& cli) {
    if (!cli.check_flags({"file", "lo", "hi", "print"})) return 2;
    std::string file = cli.get_string("file", "");
    if (file.empty() || !cli.has("lo") || !cli.has("hi")) {
        std::cerr << "query requires --file <pgf> --lo \"..\" --hi \"..\"\n";
        return 2;
    }
    return dispatch_dims(cli, file, {query_impl<1>, query_impl<2>,
                                     query_impl<3>, query_impl<4>});
}

int cmd_decluster(const Cli& cli) {
    if (!cli.check_flags({"file", "disks", "method", "seed", "out"})) {
        return 2;
    }
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "decluster requires --file <pgf> [--disks M]\n";
        return 2;
    }
    return dispatch_dims(cli, file, {decluster_impl<1>, decluster_impl<2>,
                                     decluster_impl<3>, decluster_impl<4>});
}

int cmd_partition(const Cli& cli) {
    if (!cli.check_flags({"file", "out", "disks", "method", "seed"})) {
        return 2;
    }
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "partition requires --file <pgf> --out <prefix>\n";
        return 2;
    }
    return dispatch_dims(cli, file, {partition_impl<1>, partition_impl<2>,
                                     partition_impl<3>, partition_impl<4>});
}

int cmd_validate(const Cli& cli) {
    if (!cli.check_flags(
            {"file", "level", "pool-pages", "assignment", "disks"})) {
        return 2;
    }
    std::string file = cli.get_string("file", "");
    if (file.empty()) {
        std::cerr << "validate requires --file <pgf> [--level deep] "
                     "[--assignment a.csv --disks M]\n";
        return 2;
    }
    return dispatch_dims(cli, file, {validate_impl<1>, validate_impl<2>,
                                     validate_impl<3>, validate_impl<4>});
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
    } catch (const IoError& e) {
        std::cerr << "I/O error: " << e.what() << "\n";
        return 3;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}

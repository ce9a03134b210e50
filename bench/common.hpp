// Shared plumbing for the experiment harness: option parsing, dataset
// workbenches, the disk-count sweep the paper uses, CSV emission, and the
// parallel sweep harness every figure/table binary fans its configurations
// through.
//
// Every bench binary runs with no arguments and prints the paper's
// rows/series. Optional flags:
//   --csv-dir <dir>     also write each table as CSV into <dir>
//   --queries <n>       queries per configuration (default 1000, the paper's)
//   --seed <s>          dataset/workload base seed
//   --threads <n>       sweep parallelism (default: PGF_THREADS env, else
//                       hardware concurrency; 1 = serial). Output is
//                       byte-identical at every thread count.
//   --inner-threads <n> intra-algorithm parallelism: chunks the O(N^2)
//                       minimax/proximity scans inside each declustering
//                       run across a second pool (default: PGF_INNER_THREADS
//                       env, else 1 = serial; 0 = hardware concurrency).
//                       Output is byte-identical at every setting.
//   --bench-json <f>    write the run's timings to <f> as a pgf-bench-v2
//                       report (report.hpp; compare with tools/bench_diff)
//   --node-pool-pages <n>  buffer-pool frames per serving node
//                       (ext_serving; default 1024)
//   --full              full paper scale for the SP-2 experiment
//                       (also enabled by PGF_FULL_SCALE=1 in the environment)
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "latency.hpp"
#include "report.hpp"
#include "pgf/core/declusterer.hpp"
#include "pgf/core/sweep.hpp"
#include "pgf/disksim/simulator.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/cli.hpp"
#include "pgf/util/table.hpp"
#include "pgf/util/temp_dir.hpp"
#include "pgf/util/thread_pool.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgf::bench {

struct Options {
    std::string csv_dir;
    std::size_t queries = 1000;
    std::uint64_t seed = 1;
    unsigned threads = 0;  ///< 0 = hardware concurrency
    unsigned inner_threads = 1;  ///< intra-algorithm scans; 0 = hw concurrency
    std::string bench_json;
    std::size_t node_pool_pages = 1024;  ///< serving per-node pool frames
    bool full_scale = false;

    /// Parses the flags above; any other --flag exits 2, naming it.
    Options(int argc, const char* const* argv);

    /// Thread count after resolving 0 to the hardware concurrency.
    unsigned resolved_threads() const;

    /// Inner-scan thread count after resolving 0 to hardware concurrency.
    unsigned resolved_inner_threads() const;
};

/// The value of a PGF_* count override (e.g. PGF_WAL_N), or nullopt when
/// it is unset or empty; a malformed value exits 2 naming the variable,
/// like a malformed flag.
std::optional<std::uint64_t> env_count(const char* var);

/// The inner-scan pool for a bench binary, or nullptr when
/// --inner-threads resolves to 1 (serial scans, the default). Shared by
/// every declustering run; concurrent sweep tasks serialize on the pool's
/// submit mutex.
std::unique_ptr<ThreadPool> make_inner_pool(const Options& opt);

/// Prints the experiment banner: which paper table/figure is being
/// regenerated and with what workload.
void print_banner(const Options& opt, const std::string& experiment,
                  const std::string& note);

/// Prints a table and, when --csv-dir is set, writes `<csv_dir>/<name>.csv`.
void emit(const Options& opt, const TextTable& table, const std::string& name);

/// Steady-clock time in milliseconds, for timing a phase.
inline double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// The paper's disk sweep: M = 4, 6, ..., 32.
std::vector<std::uint32_t> disk_sweep();

/// A fresh unique path under the system temp directory for a paged
/// workbench's backing file (tag is sanitized into the file name). The
/// caller owns cleanup.
std::string unique_backing_path(const std::string& tag);

/// One worker pool + sweep engine + timing report per bench binary. The
/// sweep() results come back in declaration order, so stdout/CSV bytes
/// never depend on the thread count; wall-clock per sweep is recorded as
/// metric "<sweep>/wall_ms" and, when --bench-json was given, written out
/// by write_timings() (called by the binary at the end of its run).
class SweepHarness {
public:
    SweepHarness(const Options& opt, std::string binary);

    /// The shared pool (nullptr when running serially) — also handed to
    /// Workbench::workload for parallel query-bucket collection.
    ThreadPool* pool() { return pool_.get(); }

    /// The inner-scan pool for DeclusterOptions::pool (nullptr when
    /// --inner-threads resolves to 1). Distinct from pool(): that one runs
    /// whole sweep configurations, this one chunks the O(N^2) scans inside
    /// a single declustering run.
    ThreadPool* inner_pool() { return inner_pool_.get(); }

    SweepRunner& runner() { return runner_; }

    /// Fans fn(config, task) over the configurations and logs the sweep's
    /// wall time under `name`.
    template <typename Config, typename Fn>
    auto sweep(const std::string& name, const std::vector<Config>& configs,
               Fn&& fn) {
        auto results = runner_.map(configs, std::forward<Fn>(fn));
        record_wall(name, runner_.last().wall_ms);
        return results;
    }

    /// Times an arbitrary phase (e.g. workload collection) under `name`.
    template <typename Fn>
    auto timed(const std::string& name, Fn&& fn) {
        const auto start = now_ms();
        auto result = fn();
        record_wall(name, now_ms() - start);
        return result;
    }

    /// Writes the report (plus "total/wall_ms") when --bench-json is set;
    /// true on success (or when disabled).
    bool write_timings();

private:
    void record_wall(const std::string& name, double wall_ms);

    const Options& opt_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<ThreadPool> inner_pool_;
    SweepRunner runner_;
    BenchReport report_;
    double total_ms_ = 0.0;
};

/// A dataset loaded into a grid file with its structural snapshot — the
/// starting state of every simulation experiment.
template <std::size_t D>
struct Workbench {
    Dataset<D> dataset;
    GridFile<D> gf;
    GridStructure gs;

    explicit Workbench(Dataset<D> ds)
        : dataset(std::move(ds)), gf(dataset.build()), gs(gf.structure()) {}

    /// Precollects the bucket sets of a fresh random square-query workload
    /// (reused across every method/M configuration). A pool fans the
    /// grid-file lookups across threads; the result is bit-identical to
    /// the serial collection.
    std::vector<std::vector<std::uint32_t>> workload(
        double ratio, std::size_t count, std::uint64_t seed,
        ThreadPool* pool = nullptr) const {
        Rng rng(seed);
        return collect_query_buckets(
            gf, square_queries(dataset.domain, ratio, count, rng), pool);
    }

    std::string summary() const {
        return dataset.name + ": " + std::to_string(gf.record_count()) +
               " records, " + std::to_string(gf.bucket_count()) +
               " buckets (" + std::to_string(gf.merged_bucket_count()) +
               " merged)";
    }
};

/// Builder-pool frames of paged_copy: enough to keep every default-scale
/// file resident, so serial reference queries through the file hit.
inline constexpr std::size_t kPagedCopyPoolPages = 4096;

/// `ds` bulk-loaded into a flushed paged grid file at `path`, one bucket
/// per page of the dataset's bucket capacity, so it is cell-for-cell the
/// workbench's in-memory file: the disk image the threaded serving benches
/// read.
template <std::size_t D>
std::unique_ptr<PagedGridFile<D>> paged_copy(const Dataset<D>& ds,
                                             const std::filesystem::path& path) {
    typename PagedGridFile<D>::Config cfg;
    cfg.page_size = PagedBucketStore<D>::page_size_for(ds.bucket_capacity);
    cfg.pool_pages = kPagedCopyPoolPages;
    auto file =
        std::make_unique<PagedGridFile<D>>(path.string(), ds.domain, cfg);
    file->bulk_load(ds.points);
    file->flush();
    return file;
}

/// Builds the Workbench for the dataset `maker(rng)` returns.
template <std::size_t D, typename Maker>
std::unique_ptr<const Workbench<D>> make_workbench(Rng& rng, Maker&& maker) {
    return std::make_unique<const Workbench<D>>(maker(rng));
}

}  // namespace pgf::bench

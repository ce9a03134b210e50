// Extension experiment — durability tax and recovery speed of the WAL.
//
// The durability layer (pgf/storage/wal.hpp + checksummed pages) claims
// crash safety costs a bounded build-throughput tax: the bytes each page
// encode changed are journaled before the data file may write the page
// (WAL-before-data, enforced by the buffer pool), but appends are buffered
// and group-flushed, so the tax is sequential-write bandwidth rather than
// per-op fsyncs. This bench measures the claim directly: the same
// point-at-a-time insert workload builds a paged grid file with the WAL
// off (the historical, byte-identical-output path) and on, sweeping
//
//   N            {20000, 100000}  (PGF_WAL_N=<n> overrides the list —
//                                  the CI smoke lane runs N=20000 only)
//   pool pages   {256}            (small enough that eviction-driven
//                                  flush_up_to ordering is on the path)
//
// and reporting build rate, the WAL tax (relative slowdown), journal
// volume, and group-flush counts. A third row per N measures recovery:
// a fault injector crashes an identical build halfway through its
// durability-relevant writes, replay_wal reconstructs the grid from the
// crash state, and the row reports wall time, pages replayed, and records
// recovered. Correctness anchors: WAL-on and WAL-off builds must produce
// identical structures (journaling may never perturb the engine), and the
// recovered file must pass the deep paged audit; any violation exits 1.
//
// --bench-json <file> writes a pgf-bench-v2 report: build cells
// "n=<N>/wal=<on|off>" (build time and rate, journal volume, flushes, the
// pool's counters) and recovery cells "n=<N>/recover" (replay time, pages
// replayed, records recovered).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/util/file.hpp"

namespace pgf::bench {
namespace {

std::vector<std::uint64_t> record_counts() {
    if (const auto n = env_count("PGF_WAL_N")) return {*n};
    return {20000, 100000};
}

/// The workload every cell replays: N uniform points, inserted one at a
/// time (the journaled path — bulk load batches sessions differently).
std::vector<Point<2>> workload_points(std::uint64_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Point<2>> pts(n);
    for (auto& p : pts) {
        p[0] = rng.uniform();
        p[1] = rng.uniform();
    }
    return pts;
}

PagedGridFile<2>::Config cell_config(const std::string& wal_path,
                                     FaultInjector* injector) {
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(32);
    cfg.pool_pages = 256;
    cfg.wal_path = wal_path;
    cfg.fault_injector = injector;
    return cfg;
}

/// Cheap structural fingerprint for the on-vs-off anchor.
struct Shape {
    std::size_t records = 0;
    std::size_t buckets = 0;
    std::size_t refinements = 0;
};

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Extension — WAL durability tax and recovery speed",
                 "point-at-a-time inserts into the paged backend with the "
                 "write-ahead log off vs on (same workload, same pool), "
                 "plus timed crash recovery via replay_wal");

    BenchReport report("ext_wal", opt.seed);
    bool anchors_ok = true;
    for (std::uint64_t n : record_counts()) {
        const auto pts = workload_points(n, opt.seed);
        TextTable table({"n", "wal", "build ms", "krec/s", "wal MB",
                         "flushes", "evict", "tax %"});
        Shape shapes[2];
        double off_ms = 0.0;

        for (const bool wal_on : {false, true}) {
            const std::string backing = unique_backing_path(
                "wal." + std::to_string(n) + (wal_on ? ".on" : ".off"));
            const std::string wal_path = wal_on ? backing + ".wal" : "";
            const std::string cell = "n=" + std::to_string(n) +
                                     "/wal=" + (wal_on ? "on" : "off");
            double build_ms = 0.0;
            BufferPool::Stats pool;
            std::uint64_t wal_flushes = 0;
            {
                Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
                auto cfg = cell_config(wal_path, nullptr);
                const double t0 = now_ms();
                PagedGridFile<2> pf(backing, domain, cfg);
                for (std::size_t i = 0; i < pts.size(); ++i) {
                    pf.insert(pts[i], i);
                }
                pf.flush();
                build_ms = now_ms() - t0;
                pool = pf.pool().stats();
                if (wal_on && pf.wal() != nullptr) {
                    wal_flushes = pf.wal()->stats().flushes;
                }
                shapes[wal_on ? 1 : 0] = {pf.record_count(),
                                          pf.bucket_count(),
                                          pf.refinement_count()};
            }
            const std::uint64_t wal_bytes =
                wal_on ? static_cast<std::uint64_t>(
                             std::filesystem::file_size(wal_path))
                       : 0;
            if (!wal_on) off_ms = build_ms;
            const double records_per_s =
                build_ms > 0.0 ? static_cast<double>(n) / (build_ms / 1000.0)
                               : 0.0;
            const double tax =
                wal_on && off_ms > 0.0
                    ? 100.0 * (build_ms - off_ms) / off_ms
                    : 0.0;
            report.metric(cell, "build_ms", build_ms, "ms", Better::kLower);
            report.metric(cell, "records_per_s", records_per_s, "1/s",
                          Better::kHigher);
            if (wal_on) {
                report.metric(cell, "wal_bytes",
                              static_cast<double>(wal_bytes), "bytes",
                              Better::kLower);
                report.metric(cell, "wal_flushes",
                              static_cast<double>(wal_flushes), "count",
                              Better::kLower);
            }
            report.pool(cell, pool);
            table.add(n, wal_on ? "on" : "off", format_double(build_ms),
                      format_double(records_per_s / 1000.0),
                      format_double(static_cast<double>(wal_bytes) /
                                    (1024.0 * 1024.0)),
                      wal_flushes, pool.evictions,
                      wal_on ? format_double(tax) : "-");
            std::remove(backing.c_str());
            if (wal_on) std::remove(wal_path.c_str());
        }
        if (shapes[0].records != shapes[1].records ||
            shapes[0].buckets != shapes[1].buckets ||
            shapes[0].refinements != shapes[1].refinements) {
            std::cerr << "ext_wal: WAL-on build DIVERGED from WAL-off\n";
            anchors_ok = false;
        }

        // Recovery cell: crash an identical build halfway through its
        // durability-relevant writes, then time the replay.
        {
            const std::string backing =
                unique_backing_path("wal." + std::to_string(n) + ".crash");
            const std::string wal_path = backing + ".wal";
            Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};

            // Pass 1 counts the injection points (kUnlimited never fires).
            std::uint64_t total_ops = 0;
            {
                FaultInjector counter;
                auto cfg = cell_config(wal_path, &counter);
                PagedGridFile<2> pf(backing, domain, cfg);
                const std::uint64_t base = counter.ops_seen();
                for (std::size_t i = 0; i < pts.size(); ++i) {
                    pf.insert(pts[i], i);
                }
                pf.flush();
                total_ops = counter.ops_seen() - base;
            }
            std::remove(backing.c_str());
            std::remove(wal_path.c_str());

            FaultInjector injector;
            auto cfg = cell_config(wal_path, &injector);
            {
                PagedGridFile<2> pf(backing, domain, cfg);
                injector.arm(total_ops / 2);
                try {
                    for (std::size_t i = 0; i < pts.size(); ++i) {
                        pf.insert(pts[i], i);
                    }
                    pf.flush();
                } catch (const CrashError&) {
                    // expected: the crash state stays on disk
                }
            }
            PGF_CHECK(injector.crashed(),
                      "ext_wal: the injected crash never fired");

            const std::string cell = "n=" + std::to_string(n) + "/recover";
            const double t0 = now_ms();
            auto rcfg = cell_config(wal_path, nullptr);
            PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, backing,
                                rcfg);
            const double recover_ms = now_ms() - t0;
            const std::uint64_t pages_replayed =
                pf.recovery_stats().pages_replayed;
            report.metric(cell, "recover_ms", recover_ms, "ms",
                          Better::kLower);
            report.metric(cell, "pages_replayed",
                          static_cast<double>(pages_replayed), "count",
                          Better::kLower);
            report.metric(cell, "records",
                          static_cast<double>(pf.record_count()), "count",
                          Better::kHigher);
            report.metric(cell, "wal_bytes",
                          static_cast<double>(
                              std::filesystem::file_size(wal_path)),
                          "bytes", Better::kLower);
            const auto audit = analysis::audit_paged_grid_file(
                pf, analysis::ValidationLevel::kDeep);
            if (!audit.ok()) {
                std::cerr << "ext_wal: recovered file FAILED the deep "
                             "audit\n"
                          << audit.summary() << "\n";
                anchors_ok = false;
            }
            std::cout << "recovery: crash at write " << total_ops / 2
                      << "/" << total_ops << " -> " << pf.record_count()
                      << " records, " << pages_replayed
                      << " pages replayed in " << format_double(recover_ms)
                      << " ms (deep audit " << (audit.ok() ? "OK" : "FAILED")
                      << ")\n";
            std::remove(backing.c_str());
            std::remove(wal_path.c_str());
        }
        emit(opt, table, "ext_wal_n" + std::to_string(n));
    }

    if (!opt.bench_json.empty()) report.write(opt.bench_json);
    return anchors_ok ? 0 : 1;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// ingest_wal: 10^5 uniform 2-d point inserts into a WAL-on PagedGridFile
// with a 256-frame pool. After every 1000 inserts, 20 range queries (ratio
// 0.001) run through query_records on the same file. Then flush, close,
// and reopen through the RecoverTag constructor (a restart: WAL replay).
// Set-up generates the inserts and queries and runs a warm-up round at a
// tenth of the size.
//
// End-to-end (medians over rounds): insert records/s (inserts + final
// flush), the interleaved queries' qps and latency (quantiles over every
// round's queries), the restart time, and data file + log bytes per byte
// of user records. Repeated until --seconds of ingest, query and
// restart time have accumulated.
// Correctness: every interleaved query matches an in-memory GridFile
// mirror fed the same inserts; the recovered file passes the deep paged
// audit and holds exactly the inserted records.
//
// Traced: one more round with a span around every insert, query, the
// flush, the close and the recovery.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgf/analysis/paged_audit.hpp"
#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgfbench {
namespace {

constexpr std::size_t D = 2;
constexpr std::size_t kInsertsPerCheckpoint = 1000;
constexpr std::size_t kQueriesPerCheckpoint = 20;
constexpr std::size_t kPoolPages = 256;
using File = pgf::PagedGridFile<D>;
using Store = pgf::PagedBucketStore<D>;
using Records = std::vector<pgf::GridRecord<D>>;

struct Round {
    double insert_s = 0.0;   ///< insert calls + the final flush
    double query_s = 0.0;    ///< interleaved query calls
    double recover_s = 0.0;  ///< RecoverTag reopen
    std::vector<double> latency_ms;
    double space_amp = 0.0;
    std::uint64_t wal_bytes = 0;
    pgf::WriteAheadLog::Stats wal;
    pgf::BufferPool::Stats pool;
    pgf::ReplayStats replay;

    double busy_s() const { return insert_s + query_s + recover_s; }
};

Round run_round(Report& report, Tracer& tracer,
                const std::vector<pgf::Point<D>>& points,
                const std::vector<pgf::Rect<D>>& queries, bool corrupt) {
    const pgf::Rect<D> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    const std::string path = scratch_path("ingest.pgf");
    File::Config cfg;
    cfg.page_size = Store::page_size_for(32);
    cfg.pool_pages = kPoolPages;
    cfg.wal_path = path + ".wal";
    Round r;

    auto t = Clock::now();
    auto file = std::make_unique<File>(path, domain, cfg);
    r.insert_s += seconds_since(t);
    pgf::GridFile<D>::Config mc;
    mc.bucket_capacity = file->capacity();
    pgf::GridFile<D> mirror(domain, mc);
    pgf::QueryScratch scratch, mirror_scratch;
    Records got, expect;
    std::size_t next_query = 0;
    for (std::size_t i = 0; i < points.size(); i += kInsertsPerCheckpoint) {
        const std::size_t end =
            std::min(points.size(), i + kInsertsPerCheckpoint);
        t = Clock::now();
        for (std::size_t j = i; j < end; ++j) {
            Scope s(tracer, "gridfile.insert", j);
            file->insert(points[j], j);
        }
        r.insert_s += seconds_since(t);
        for (std::size_t j = i; j < end; ++j) mirror.insert(points[j], j);
        for (std::size_t k = 0; k < kQueriesPerCheckpoint; ++k) {
            const std::size_t qi = next_query++ % queries.size();
            t = Clock::now();
            {
                Scope s(tracer, "gridfile.query_records", qi);
                file->query_records(queries[qi], scratch, got);
            }
            const double q_s = seconds_since(t);
            r.query_s += q_s;
            r.latency_ms.push_back(q_s * 1e3);
            mirror.query_records(queries[qi], mirror_scratch, expect);
            if (corrupt && k == 0 && i == 0) got.push_back({});
            report.check(fingerprint(got) == fingerprint(expect),
                         "interleaved query " + std::to_string(qi) +
                             " differs from the in-memory mirror");
        }
    }
    t = Clock::now();
    {
        Scope s(tracer, "storage.pool.flush");
        file->flush();
    }
    r.insert_s += seconds_since(t);
    r.wal_bytes = file_bytes(cfg.wal_path);
    r.space_amp = static_cast<double>(file_bytes(path) + r.wal_bytes) /
                  (static_cast<double>(points.size()) * Store::kRecordBytes);
    r.wal = file->wal()->stats();
    r.pool = file->pool().stats();
    {
        Scope s(tracer, "bench.close");
        file.reset();
    }

    std::optional<File> recovered;
    t = Clock::now();
    {
        Scope s(tracer, "storage.recovery.reopen");
        recovered.emplace(File::RecoverTag{}, path, cfg);
    }
    r.recover_s = seconds_since(t);
    r.replay = recovered->recovery_stats();
    report.check(recovered->record_count() == points.size(),
                 "recovered file holds " +
                     std::to_string(recovered->record_count()) + " of " +
                     std::to_string(points.size()) + " records");
    const auto audit = pgf::analysis::audit_paged_grid_file(
        *recovered, pgf::analysis::ValidationLevel::kDeep);
    report.check(audit.ok(),
                 "deep audit of the recovered file:\n" + audit.summary());
    recovered.reset();
    std::remove(path.c_str());
    std::remove(cfg.wal_path.c_str());
    return r;
}

}  // namespace

void run_ingest_wal(const Options& opt, Report& report) {
    const std::size_t n = opt.smoke ? 5000 : 100000;
    const pgf::Rect<D> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};

    // -- set-up: the insert stream, the query set, and a warm-up round at a
    // tenth of the size (code, allocator and page cache reach steady state
    // before the first measured round) --------------------------------------
    std::vector<pgf::Point<D>> points;
    std::vector<pgf::Rect<D>> queries;
    Tracer off(false);
    const double setup_s = median_setup(3, [&](int) {
        pgf::Rng rng(opt.seed);
        points.assign(n, pgf::Point<D>{});
        for (pgf::Point<D>& p : points) {
            p[0] = rng.uniform();
            p[1] = rng.uniform();
        }
        pgf::Rng qrng(opt.seed + 27000);
        queries = pgf::square_queries(
            domain, 0.001,
            (n + kInsertsPerCheckpoint - 1) / kInsertsPerCheckpoint *
                kQueriesPerCheckpoint,
            qrng);
        const std::vector<pgf::Point<D>> warm_points(
            points.begin(),
            points.begin() + static_cast<std::ptrdiff_t>(n / 10));
        run_round(report, off, warm_points, queries, false);
    });

    // -- measured rounds ---------------------------------------------------
    std::vector<double> insert_s, recover_s, amp, busy, qps, latencies;
    double busy_s = 0.0;
    for (int rep = 0; busy_s < opt.seconds || rep < 1; ++rep) {
        const Round r = run_round(report, off, points, queries,
                                  opt.inject_fault && rep == 0);
        insert_s.push_back(r.insert_s);
        recover_s.push_back(r.recover_s);
        amp.push_back(r.space_amp);
        busy.push_back(r.busy_s());
        qps.push_back(static_cast<double>(r.latency_ms.size()) / r.query_s);
        latencies.insert(latencies.end(), r.latency_ms.begin(),
                         r.latency_ms.end());
        busy_s += r.busy_s();
        progress("round " + std::to_string(rep) + " (insert " +
                 std::to_string(r.insert_s) + " s, queries " +
                 std::to_string(r.query_s) + " s, recover " +
                 std::to_string(r.recover_s) + " s)");
    }
    report.e2e("records_per_s",
               static_cast<double>(points.size()) / median(insert_s));
    report.e2e("qps", median(qps));
    report.e2e("p50_ms", quantile(latencies, 0.50));
    report.e2e("p99_ms", windowed_p99(latencies));
    report.e2e("recover_s", median(recover_s));
    report.e2e("space_amp", median(amp));
    report.e2e("setup_s", setup_s);
    report.param("records", static_cast<double>(points.size()));
    report.param("rounds", static_cast<double>(insert_s.size()));
    report.param("pool_frames", static_cast<double>(kPoolPages));
    report.param("latency_samples", static_cast<double>(latencies.size()));

    if (!opt.trace) return;

    // -- traced round --------------------------------------------------------
    report.layer("sfc.hilbert_ns_per_key",
                 hilbert_ns_per_key<D>(points, domain));
    Tracer tracer(true);
    const Round r = run_round(report, tracer, points, queries, false);
    std::vector<double> insert_us;
    const auto& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, "gridfile.insert") == 0) {
            insert_us.push_back(
                tracer.seconds_of(static_cast<std::int32_t>(i)) * 1e6);
        }
    }
    report.layer("gridfile.insert_us.p50", quantile(insert_us, 0.50));
    report.layer("gridfile.insert_us.p99", quantile(insert_us, 0.99));
    report.layer("storage.wal.bytes_per_record",
                 static_cast<double>(r.wal_bytes) /
                     static_cast<double>(points.size()));
    report.layer("storage.wal.flushes", static_cast<double>(r.wal.flushes));
    report.layer("storage.recovery.replay_s", r.recover_s);
    report.layer("storage.recovery.wal_records",
                 static_cast<double>(r.replay.wal_records));
    report.layer("storage.recovery.pages_replayed",
                 static_cast<double>(r.replay.pages_replayed));
    report.layer("storage.recovery.pages_skipped",
                 static_cast<double>(r.replay.pages_skipped));
    report.layer("storage.pool.hit_rate", r.pool.hit_rate());
    report.layer("storage.pool.evictions",
                 static_cast<double>(r.pool.evictions));
    report.layer("storage.pool.writebacks",
                 static_cast<double>(r.pool.writebacks));
    report_trace(report, tracer, median(busy), r.busy_s());
    tracer.write_csv(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".csv",
                     "round");
}

}  // namespace pgfbench

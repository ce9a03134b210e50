// build_stream: the out-of-core build pipeline. 2*10^6 uniform.2d points
// stream through ExtSorter (a sort pool of 4 lanes) into
// PagedGridFile::bulk_load_stream with a 1024-frame pool, then flush.
// Write-only and query-free: the read path is bypassed. Set-up generates
// the points, starts the sort pool and runs a warm-up build of 5% of them.
//
// End-to-end: records/s of sort + load + flush, repeated until --seconds
// of build time have accumulated; after each build a cold 1-node
// QueryEngine serves 1000 square queries (ratio 0.001) over the new file —
// the restart-to-serving time (recover_s) and the probe's qps/latency.
// Correctness: every build loads exactly N records and every build answers
// the probe identically; the last file passes the deep paged audit and its
// probe answers match an in-memory GridFile over the same points.
//
// Traced: one more build with the sorter drained into memory before
// bulk_load_stream runs over a VectorPointSource, so run formation, merge
// and load appear as separate spans.
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgf/analysis/paged_audit.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/parallel/query_engine.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/util/thread_pool.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

namespace pgfbench {
namespace {

constexpr std::size_t D = 2;
using File = pgf::PagedGridFile<D>;
using Store = pgf::PagedBucketStore<D>;
using Records = std::vector<pgf::GridRecord<D>>;

}  // namespace

void run_build_stream(const Options& opt, Report& report) {
    const std::uint64_t n = opt.smoke ? 50000 : 2000000;
    const std::size_t probe_count = opt.smoke ? 200 : 1000;
    constexpr std::size_t kPoolPages = 1024;

    // -- set-up: the input points, the sort pool, and a warm-up build of
    // the first 5% of the points ----------------------------------------------
    std::vector<pgf::Point<D>> points;
    pgf::Rect<D> domain{};
    File::Config fc;
    fc.pool_pages = kPoolPages;
    std::unique_ptr<pgf::ThreadPool> sort_pool;
    pgf::extsort::ExtSortConfig sc;
    const double setup_s = median_setup(3, [&](int) {
        pgf::StreamDataset<D> ds =
            pgf::make_uniform2d_stream(pgf::Rng(opt.seed), n);
        points.assign(n, pgf::Point<D>{});
        std::size_t got = 0;
        while (got < points.size()) {
            const std::size_t k = ds.source->next(
                std::span<pgf::Point<D>>(points.data() + got,
                                         points.size() - got));
            if (k == 0) break;
            got += k;
        }
        points.resize(got);
        domain = ds.domain;
        fc.page_size = Store::page_size_for(ds.bucket_capacity);
        sort_pool = std::make_unique<pgf::ThreadPool>(3);  // 4 lanes
        sc.pool = sort_pool.get();

        const std::vector<pgf::Point<D>> warm_points(
            points.begin(), points.begin() + static_cast<std::ptrdiff_t>(
                                                 points.size() / 20));
        pgf::VectorPointSource<D> source(warm_points);
        pgf::extsort::ExtSorter<D> sorter(source, domain, sc);
        OwnedFile<File> warm;
        warm.reset(
            std::make_unique<File>(scratch_path("warm.pgf"), domain, fc));
        warm->bulk_load_stream(sorter);
        warm->flush();
    });
    pgf::Rng qrng(opt.seed + 31000);
    const std::vector<pgf::Rect<D>> probes =
        pgf::square_queries(domain, 0.001, probe_count, qrng);
    const std::vector<pgf::QueryEngine<D>::Query> probe_batch(probes.begin(),
                                                              probes.end());
    pgf::ServingConfig probe_cfg;
    probe_cfg.nodes = 1;
    probe_cfg.pool_pages = kPoolPages;
    probe_cfg.concurrency = 1;

    // -- measured builds ---------------------------------------------------
    OwnedFile<File> last;
    std::vector<Fingerprint> first_answers;
    std::vector<Fingerprint> answers;
    std::vector<double> build_s, restart_s, amp, latencies;
    std::vector<double> probe_qps;
    double busy_s = 0.0;
    for (int rep = 0; busy_s < opt.seconds || rep < 1; ++rep) {
        last.reset();
        const auto t0 = Clock::now();
        pgf::VectorPointSource<D> source(points);
        pgf::extsort::ExtSorter<D> sorter(source, domain, sc);
        auto file =
            std::make_unique<File>(scratch_path("build.pgf"), domain, fc);
        const std::uint64_t loaded = file->bulk_load_stream(sorter);
        file->flush();
        build_s.push_back(seconds_since(t0));
        report.check(loaded == points.size() &&
                         file->record_count() == points.size(),
                     "streamed build lost records");
        amp.push_back(static_cast<double>(file_bytes(file->path())) /
                      (static_cast<double>(points.size()) *
                       Store::kRecordBytes));

        // Restart-to-serving: a cold engine over the new file.
        const auto t1 = Clock::now();
        pgf::Assignment one_disk{
            std::vector<std::uint32_t>(file->bucket_count(), 0), 1};
        pgf::QueryEngine<D> engine(*file, std::move(one_disk), probe_cfg);
        auto out = engine.run(probe_batch);
        restart_s.push_back(seconds_since(t1));
        probe_qps.push_back(out.report.qps);
        latencies.insert(latencies.end(), out.latencies_ms.begin(),
                         out.latencies_ms.end());
        answers.clear();
        bool corrupt = opt.inject_fault;
        for (Records& r : out.results) {
            if (corrupt && !r.empty()) {
                r.back().point[0] += 1.0;
                corrupt = false;
            }
            answers.push_back(fingerprint(r, /*with_id=*/false));
        }
        if (first_answers.empty()) {
            first_answers = answers;
        } else {
            report.check(answers == first_answers,
                         "probe answers differ between identical builds",
                         answers.size());
        }
        busy_s += build_s.back() + restart_s.back();
        progress("build " + std::to_string(rep) + " (" +
                 std::to_string(build_s.back()) + " s, restart " +
                 std::to_string(restart_s.back()) + " s)");
        last.reset(std::move(file));
    }

    // -- verification of the last build ------------------------------------
    {
        const auto audit = pgf::analysis::audit_paged_grid_file(
            *last, pgf::analysis::ValidationLevel::kDeep);
        report.check(audit.ok(), "deep audit of the built file:\n" +
                                     audit.summary());
        pgf::GridFile<D>::Config mc;
        mc.bucket_capacity = last->capacity();
        pgf::GridFile<D> mem(domain, mc);
        mem.bulk_load(points);
        pgf::QueryScratch scratch;
        Records expect;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            mem.query_records(probes[i], scratch, expect);
            report.check(fingerprint(expect, false) == answers[i],
                         "probe query " + std::to_string(i) +
                             " differs from the in-memory grid file");
        }
    }
    last.reset();

    report.e2e("records_per_s",
               static_cast<double>(points.size()) / median(build_s));
    report.e2e("qps", median(probe_qps));
    report.e2e("p50_ms", quantile(latencies, 0.50));
    report.e2e("p99_ms", windowed_p99(latencies));
    report.e2e("recover_s", median(restart_s));
    report.e2e("space_amp", median(amp));
    report.e2e("setup_s", setup_s);
    report.param("dataset", "uniform.2d");
    report.param("records", static_cast<double>(points.size()));
    report.param("builds", static_cast<double>(build_s.size()));
    report.param("pool_frames", static_cast<double>(kPoolPages));
    report.param("sort_lanes", static_cast<double>(sort_pool->parallelism()));
    report.param("latency_samples", static_cast<double>(latencies.size()));

    if (!opt.trace) return;

    // -- traced build: sort, merge and load as separate spans --------------
    report.layer("sfc.hilbert_ns_per_key",
                 hilbert_ns_per_key<D>(points, domain));
    std::vector<pgf::Point<D>> sorted(points.size());
    Tracer tracer(true);
    OwnedFile<File> traced;
    std::optional<pgf::extsort::ExtSorter<D>> sorter;
    std::int32_t run_span = -1, merge_span = -1, load_span = -1;
    const auto t0 = Clock::now();
    {
        Scope build(tracer, "bench.build");
        pgf::VectorPointSource<D> source(points);
        {
            Scope s(tracer, "core.extsort.form_runs");
            run_span = s.index();
            sorter.emplace(source, domain, sc);
        }
        {
            Scope s(tracer, "core.extsort.merge");
            merge_span = s.index();
            std::size_t got = 0;
            while (got < sorted.size()) {
                const std::size_t k = sorter->next(std::span<pgf::Point<D>>(
                    sorted.data() + got, sorted.size() - got));
                if (k == 0) break;
                got += k;
            }
            sorted.resize(got);
        }
        {
            Scope s(tracer, "gridfile.create");
            traced.reset(std::make_unique<File>(scratch_path("traced.pgf"),
                                                domain, fc));
        }
        {
            Scope s(tracer, "gridfile.bulk_load_stream");
            load_span = s.index();
            pgf::VectorPointSource<D> in_order(sorted);
            traced->bulk_load_stream(in_order);
        }
        {
            Scope s(tracer, "storage.pool.flush");
            traced->flush();
        }
    }
    const double traced_s = seconds_since(t0);
    report.check(traced->record_count() == points.size(),
                 "traced build lost records");
    const pgf::extsort::ExtSortStats& st = sorter->stats();
    report.layer("core.extsort.run_s", tracer.seconds_of(run_span));
    report.layer("core.extsort.merge_s", tracer.seconds_of(merge_span));
    report.layer("core.extsort.spill_bytes",
                 static_cast<double>(st.spill_bytes));
    report.layer("core.extsort.merge_passes",
                 static_cast<double>(st.merge_passes));
    report.layer("gridfile.load_s", tracer.seconds_of(load_span));
    const pgf::BufferPool::Stats ps = traced->pool().stats();
    report.layer("storage.pool.hit_rate", ps.hit_rate());
    report.layer("storage.pool.evictions", static_cast<double>(ps.evictions));
    report.layer("storage.pool.writebacks",
                 static_cast<double>(ps.writebacks));
    report_trace(report, tracer, median(build_s), traced_s);
    tracer.write_csv(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".csv",
                     "build");
}

}  // namespace pgfbench

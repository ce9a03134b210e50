// Ablation — online (streaming) minimax vs the offline Algorithm 2.
//
// The paper's files grow (each simulation step appends a snapshot; each
// bucket split creates a new bucket), so a production deployment needs an
// incremental placement rule. This bench streams the final grid file's
// buckets through OnlineMinimax — in creation order and in random order —
// and compares response time and closest-pair quality against the offline
// algorithm and against a round-robin baseline.
#include <iostream>

#include "common.hpp"

#include "pgf/decluster/online.hpp"
#include "pgf/disksim/metrics.hpp"

namespace pgf::bench {
namespace {

Assignment stream(const GridStructure& gs, std::uint32_t m,
                  const std::vector<std::size_t>& order) {
    OnlineMinimax online(gs.domain_lo, gs.domain_hi, m);
    Assignment a;
    a.num_disks = m;
    a.disk_of.assign(gs.bucket_count(), 0);
    for (std::size_t b : order) {
        a.disk_of[b] = online.place(gs.buckets[b]);
    }
    return a;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Ablation — online vs offline minimax",
                 "hot.2d, r = 0.01; streaming placement in creation order / "
                 "random order vs offline Algorithm 2 and round-robin");
    Rng rng(opt.seed);
    auto wb = make_workbench<2>(rng,
                                [](Rng& r) { return make_hotspot2d(r); });
    const Workbench<2>& bench = *wb;
    std::cout << bench.summary() << "\n";
    auto qb = bench.workload(0.01, opt.queries, opt.seed + 9000);

    const std::size_t n = bench.gs.bucket_count();
    std::vector<std::size_t> creation_order(n);
    for (std::size_t i = 0; i < n; ++i) creation_order[i] = i;
    std::vector<std::size_t> random_order = creation_order;
    Rng shuffle_rng(opt.seed + 9001);
    shuffle_rng.shuffle(random_order);

    TextTable rt({"disks", "offline", "online (creation)", "online (random)",
                  "round-robin", "optimal"});
    TextTable cp({"disks", "offline", "online (creation)", "online (random)",
                  "round-robin"});
    for (std::uint32_t m : disk_sweep()) {
        Assignment offline =
            decluster(bench.gs, Method::kMinimax, m, {.seed = opt.seed + 43});
        Assignment creation = stream(bench.gs, m, creation_order);
        Assignment random = stream(bench.gs, m, random_order);
        Assignment rr;
        rr.num_disks = m;
        rr.disk_of.resize(n);
        for (std::size_t b = 0; b < n; ++b) {
            rr.disk_of[b] = static_cast<std::uint32_t>(b % m);
        }
        double optimal = 0.0;
        std::vector<std::string> r_row{std::to_string(m)};
        std::vector<std::string> c_row{std::to_string(m)};
        for (const Assignment* a : {&offline, &creation, &random, &rr}) {
            WorkloadStats s = evaluate_workload(qb, *a);
            r_row.push_back(format_double(s.avg_response));
            c_row.push_back(
                std::to_string(closest_pairs_same_disk(bench.gs, *a)));
            optimal = s.optimal;
        }
        r_row.push_back(format_double(optimal));
        rt.add_row(std::move(r_row));
        cp.add_row(std::move(c_row));
    }
    emit(opt, rt, "ablation_online_response");
    emit(opt, cp, "ablation_online_closest_pairs");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

// Extension experiment — partial match queries (the setting of the paper's
// Sec. 2 citations: Du & Sobolewski for DM, Kim & Pramanik for FX).
//
// Table A validates the classic optimality results on Cartesian product
// files: DM achieves ceil(extent/M) whenever exactly one attribute is
// unspecified, at every disk count; FX matches it on power-of-two
// configurations.
// Table B runs partial match workloads against a real (merged-bucket) grid
// file and compares all algorithms — showing that DM's celebrated partial
// match optimality survives the extension to grid files at small M but the
// proximity-based methods still win once queries leave the optimality class.
#include <iostream>

#include "common.hpp"

#include "pgf/analytic/dm_theory.hpp"
#include "pgf/gridfile/partial_match.hpp"

namespace pgf::bench {
namespace {

int run(int argc, char** argv) {
    Options opt(argc, argv);
    print_banner(opt, "Extension — partial match queries",
                 "DM/FX optimality class on Cartesian files + grid-file "
                 "partial match workloads");

    // Table A: analytic optimality on Cartesian product files.
    TextTable ta({"free extent", "M", "optimal", "DM", "FX worst anchor",
                  "DM optimal", "FX optimal"});
    for (std::uint32_t extent : {8u, 12u, 16u, 21u, 32u}) {
        for (std::uint32_t m : {2u, 4u, 8u, 16u}) {
            std::uint64_t optimal = (extent + m - 1) / m;
            std::uint64_t dm = dm_partial_match_exact({extent}, m);
            std::uint64_t fx_worst = 0;
            for (std::uint32_t anchor = 0; anchor < 16; ++anchor) {
                fx_worst = std::max(
                    fx_worst, fx_partial_match_at(0, {anchor}, {extent}, m));
            }
            ta.add(extent, m, optimal, dm, fx_worst,
                   dm == optimal ? "yes" : "NO",
                   fx_worst == optimal ? "yes" : "no");
        }
    }
    emit(opt, ta, "ext_partial_match_analytic");

    // Table B: partial match on a real grid file (stock.3d: "all quotes of
    // stock X", "all stocks at price Y on day Z", ...).
    Rng rng(opt.seed);
    auto wb = make_workbench<3>(rng, [](Rng& r) {
        return make_stock3d(r, 60000);
    });
    const Workbench<3>& bench = *wb;
    std::cout << "\n" << bench.summary() << "\n";
    Rng qrng(opt.seed + 8000);
    std::vector<std::vector<std::uint32_t>> qb;
    for (std::size_t q = 0; q < opt.queries; ++q) {
        PartialMatch<3> pm;
        // Rotate through the three single-attribute-specified templates.
        std::size_t axis = q % 3;
        pm.key[axis] = qrng.uniform(bench.dataset.domain.lo[axis],
                                    bench.dataset.domain.hi[axis]);
        qb.push_back(bench.gf.query_buckets(pm));
    }
    TextTable tb({"disks", "DM/D", "FX/D", "HCAM/D", "SSP", "MiniMax",
                  "optimal"});
    for (std::uint32_t m : disk_sweep()) {
        std::vector<std::string> row{std::to_string(m)};
        double optimal = 0.0;
        for (Method method : {Method::kDiskModulo, Method::kFieldwiseXor,
                              Method::kHilbert, Method::kSsp,
                              Method::kMinimax}) {
            DeclusterOptions dopt;
            dopt.seed = opt.seed + 41;
            Assignment a = decluster(bench.gs, method, m, dopt);
            WorkloadStats s = evaluate_workload(qb, a);
            row.push_back(format_double(s.avg_response));
            optimal = s.optimal;
        }
        row.push_back(format_double(optimal));
        tb.add_row(std::move(row));
    }
    emit(opt, tb, "ext_partial_match_gridfile");
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }

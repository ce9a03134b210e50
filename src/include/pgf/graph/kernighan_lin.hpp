// Kernighan–Lin-style swap refinement for M-way declustering.
//
// The declustering problem is a Max-Cut variant: total *inter*-disk edge
// weight should be maximized, equivalently the total weight of edges whose
// endpoints share a disk ("internal weight") minimized. This pass performs
// balance-preserving vertex swaps with positive gain, the multi-way
// analogue of one Kernighan–Lin pass. The paper excludes KL as a primary
// algorithm because its pass count is unbounded; here it is used as an
// ablation: how much can local search still improve each algorithm's
// output?
//
// The scans are templated on the weight functor (direct calls, batched row
// kernels for BucketWeights) and optionally chunk across a ThreadPool. The
// serial pair loop applies the first improving swap in (i, j) order and
// rescans from there; the parallel path finds that same first improving
// partner with a chunk-ordered first-index reduction, so the sequence of
// swaps — and the refined assignment — is byte-identical to the serial
// code at every thread count. Weights must be symmetric: the batched scans
// read weight(i, v) where the classic pair loop read weight(v, i).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pgf/graph/weight_traits.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf {

struct KlResult {
    std::size_t passes = 0;      ///< passes actually executed
    std::size_t swaps = 0;       ///< total improving swaps applied
    double internal_before = 0;  ///< same-disk edge weight before refinement
    double internal_after = 0;   ///< same-disk edge weight after refinement
};

/// Total weight of edges whose endpoints share a disk (the objective the
/// refinement minimizes). O(n^2). One running accumulator in (i, j) pair
/// order, exactly like the classic scalar loop.
template <typename Weight>
double internal_weight(const std::vector<std::uint32_t>& disk_of,
                       const Weight& weight) {
    const std::size_t n = disk_of.size();
    double total = 0.0;
    std::vector<double> row(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        graph_detail::fill_weight_row(weight, i, i + 1, n, row.data());
        for (std::size_t j = i + 1; j < n; ++j) {
            if (disk_of[i] == disk_of[j]) total += row[j - i - 1];
        }
    }
    return total;
}

/// Refines `disk_of` in place. `weight(i, j)` must be symmetric and is
/// interpreted as co-access likelihood (higher = the pair should be
/// separated). Stops after `max_passes` or when a full pass finds no
/// improving swap. O(n^2) per pass plus O(n) per applied swap. An optional
/// pool chunks the gain scans and connectivity updates; the result is
/// bit-identical to the serial refinement.
template <typename Weight>
KlResult kl_refine(std::vector<std::uint32_t>& disk_of, std::uint32_t num_disks,
                   const Weight& weight, std::size_t max_passes = 8,
                   ThreadPool* pool = nullptr) {
    const std::size_t n = disk_of.size();
    PGF_CHECK(num_disks >= 1, "kl_refine requires at least one disk");
    for (std::uint32_t d : disk_of) {
        PGF_CHECK(d < num_disks, "kl_refine: disk index out of range");
    }

    KlResult result;
    result.internal_before = internal_weight(disk_of, weight);
    result.internal_after = result.internal_before;
    if (n < 2 || num_disks < 2) return result;

    const std::size_t m = num_disks;
    const bool pooled =
        pool != nullptr && n >= graph_detail::kParallelScanThreshold;

    // conn[v * m + d]: total weight between vertex v and all vertices on
    // disk d. Each vertex accumulates its neighbors in increasing index
    // order — the same per-slot addition sequence as the classic pair
    // loop, so the sums are bit-identical. Rows are independent, so the
    // init chunks across the pool.
    std::vector<double> conn(n * m, 0.0);
    auto init_rows = [&](std::size_t begin, std::size_t end) {
        std::vector<double> buf(n);
        for (std::size_t v = begin; v < end; ++v) {
            graph_detail::fill_weight_row(weight, v, 0, n, buf.data());
            double* cv = &conn[v * m];
            for (std::size_t j = 0; j < n; ++j) {
                if (j != v) cv[disk_of[j]] += buf[j];
            }
        }
    };
    if (pooled) {
        pool->parallel_for(n, init_rows);
    } else {
        init_rows(0, n);
    }

    std::vector<double> wrow(n);  // weight(i, ·) for the current i
    std::vector<double> jrow(n);  // weight(j, ·) for the swap partner
    for (std::size_t pass = 0; pass < max_passes; ++pass) {
        ++result.passes;
        bool improved = false;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            graph_detail::fill_weight_row(weight, i, 0, n, wrow.data());
            std::size_t j = i + 1;
            while (j < n) {
                const std::uint32_t di = disk_of[i];
                // First improving swap partner at or after j, in index
                // order — the vertex the serial pair loop would take next.
                auto scan = [&](std::size_t begin, std::size_t end) {
                    for (std::size_t v = begin; v < end; ++v) {
                        const std::uint32_t dv = disk_of[v];
                        if (dv == di) continue;
                        // Swapping i and v changes the internal weight by
                        // -gain. Each vertex leaves its own disk (dropping
                        // its internal contribution) and joins the other's;
                        // the edge (i, v) itself stays external and must
                        // not be double-counted.
                        const double gain =
                            (conn[i * m + di] - conn[i * m + dv]) +
                            (conn[v * m + dv] - conn[v * m + di]) +
                            2.0 * wrow[v];
                        if (gain > 1e-12) return v;
                    }
                    return n;
                };
                std::size_t found;
                if (pooled &&
                    n - j >= graph_detail::kParallelScanThreshold) {
                    found = pool->map_reduce(
                        n - j, n,
                        [&](std::size_t begin, std::size_t end) {
                            return scan(j + begin, j + end);
                        },
                        [n](std::size_t acc, std::size_t v) {
                            return acc != n ? acc : v;
                        });
                } else {
                    found = scan(j, n);
                }
                if (found == n) break;

                // Apply the swap and update connectivity incrementally.
                const std::uint32_t dj = disk_of[found];
                const double wij = wrow[found];
                const double gain = (conn[i * m + di] - conn[i * m + dj]) +
                                    (conn[found * m + dj] -
                                     conn[found * m + di]) +
                                    2.0 * wij;
                graph_detail::fill_weight_row(weight, found, 0, n,
                                              jrow.data());
                auto update = [&](std::size_t begin, std::size_t end) {
                    for (std::size_t v = begin; v < end; ++v) {
                        if (v == i || v == found) continue;
                        const double wi = wrow[v];
                        const double wj = jrow[v];
                        conn[v * m + di] += wj - wi;
                        conn[v * m + dj] += wi - wj;
                    }
                };
                if (pooled) {
                    pool->parallel_for(n, update);
                } else {
                    update(0, n);
                }
                // i and found also see each other's move: found left dj for
                // di (from i's perspective) and vice versa.
                conn[i * m + dj] -= wij;
                conn[i * m + di] += wij;
                conn[found * m + di] -= wij;
                conn[found * m + dj] += wij;
                disk_of[i] = dj;
                disk_of[found] = di;
                result.internal_after -= gain;
                ++result.swaps;
                improved = true;
                j = found + 1;
            }
        }
        if (!improved) break;
    }
    return result;
}

}  // namespace pgf

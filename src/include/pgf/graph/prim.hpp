// Prim's minimal spanning tree on an implicit dense graph.
//
// The similarity-based declustering algorithms operate on the complete
// graph over all buckets; edges are never materialized — `cost(i, j)` is
// evaluated on demand, giving O(n^2) time and O(n) memory, the same bounds
// the paper quotes for these algorithms.
//
// When the cost functor exposes the batched row kernel (BucketWeights /
// NegatedBucketWeights), each frontier relaxation consumes one vectorized
// row instead of n indirect calls. An optional ThreadPool chunks the relax
// and argmin scans; the parallel argmin compares (value, index) with the
// lowest index winning ties, so the chosen vertex — and therefore the whole
// tree — is byte-identical to the serial scan at every thread count.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "pgf/graph/weight_traits.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf {

/// Computes the MST of the complete graph on n vertices under `cost`,
/// rooted at `root`. Returns the parent array (parent[root] == root).
/// Cost must be symmetric; self-edges are never evaluated. An optional
/// pool parallelizes the per-step scans with results bit-identical to the
/// serial code.
template <typename Cost>
std::vector<std::size_t> prim_mst(std::size_t n, std::size_t root, Cost cost,
                                  ThreadPool* pool = nullptr) {
    PGF_CHECK(n >= 1, "prim_mst requires at least one vertex");
    PGF_CHECK(root < n, "prim_mst root out of range");
    std::vector<std::size_t> parent(n, root);
    std::vector<double> best(n, std::numeric_limits<double>::infinity());
    std::vector<char> in_tree(n, 0);
    parent[root] = root;
    in_tree[root] = 1;

    // Row buffer for the batched kernel; untouched for plain functors.
    std::vector<double> row;
    if constexpr (graph_detail::HasRowFill<Cost>::value) row.resize(n);

    const bool pooled =
        pool != nullptr && n >= graph_detail::kParallelScanThreshold;

    // Folds src's edges into best/parent for every vertex outside the tree.
    // Per-vertex updates are independent, so chunking cannot change them.
    auto relax_from = [&](std::size_t src) {
        auto relax_range = [&](std::size_t begin, std::size_t end) {
            if constexpr (graph_detail::HasRowFill<Cost>::value) {
                cost.fill_row_range(src, begin, end, row.data() + begin);
                for (std::size_t i = begin; i < end; ++i) {
                    if (!in_tree[i] && row[i] < best[i]) {
                        best[i] = row[i];
                        parent[i] = src;
                    }
                }
            } else {
                for (std::size_t i = begin; i < end; ++i) {
                    if (!in_tree[i]) {
                        double c = cost(src, i);
                        if (c < best[i]) {
                            best[i] = c;
                            parent[i] = src;
                        }
                    }
                }
            }
        };
        if (pooled) {
            pool->parallel_for(n, relax_range);
        } else {
            relax_range(0, n);
        }
    };

    relax_from(root);
    for (std::size_t added = 1; added < n; ++added) {
        // argmin over the frontier. The serial scan keeps the first (lowest
        // index) occurrence of the minimum; the chunked reduction preserves
        // that: first-strict-min within each chunk, chunks combined in
        // index order with a strict comparison.
        std::size_t next = n;
        if (pooled) {
            struct Cand {
                double val;
                std::size_t idx;
            };
            Cand won = pool->map_reduce(
                n, Cand{std::numeric_limits<double>::infinity(), n},
                [&](std::size_t begin, std::size_t end) {
                    Cand local{std::numeric_limits<double>::infinity(), n};
                    for (std::size_t i = begin; i < end; ++i) {
                        if (!in_tree[i] && best[i] < local.val) {
                            local = Cand{best[i], i};
                        }
                    }
                    return local;
                },
                [](const Cand& acc, const Cand& v) {
                    return v.val < acc.val ? v : acc;
                });
            next = won.idx;
        } else {
            double next_cost = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < n; ++i) {
                if (!in_tree[i] && best[i] < next_cost) {
                    next_cost = best[i];
                    next = i;
                }
            }
        }
        PGF_CHECK(next < n, "prim_mst: graph must be complete");
        in_tree[next] = 1;
        relax_from(next);
    }
    return parent;
}

/// Sum of edge costs of the tree described by a parent array.
template <typename Cost>
double tree_cost(const std::vector<std::size_t>& parent, const Cost& cost) {
    double total = 0.0;
    for (std::size_t i = 0; i < parent.size(); ++i) {
        if (parent[i] != i) total += cost(parent[i], i);
    }
    return total;
}

/// Vertices of the tree in depth-first preorder from the root. Children are
/// visited in increasing vertex order.
std::vector<std::size_t> preorder(const std::vector<std::size_t>& parent);

}  // namespace pgf

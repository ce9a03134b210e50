// Short spanning path heuristic (substrate of the SSP declustering
// algorithm of Fang, Lee & Chang).
//
// A short spanning path orders all vertices so that consecutive vertices
// are highly similar; assigning positions round-robin then spreads every
// tight neighborhood across all disks. The exact shortest spanning path is
// NP-hard (it is a TSP path), so the classic greedy nearest-neighbor
// heuristic is used: repeatedly extend the path end with the most similar
// unvisited vertex.
//
// When the similarity functor exposes the batched row kernel
// (BucketWeights), each step consumes one vectorized row of the tail
// vertex. An optional ThreadPool chunks the argmax scan; ties break to the
// lowest vertex index in both the serial and the chunked reduction, so the
// path is byte-identical at every thread count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "pgf/graph/weight_traits.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/thread_pool.hpp"

namespace pgf {

/// Builds a spanning path starting at `start`, greedily extending with the
/// unvisited vertex maximizing `similarity(tail, v)`. Returns the vertex
/// order along the path (a permutation of 0..n-1). Similarities must be
/// positive (they are weights in (0, 1]).
template <typename Sim>
std::vector<std::size_t> greedy_spanning_path(std::size_t n, std::size_t start,
                                              Sim similarity,
                                              ThreadPool* pool = nullptr) {
    PGF_CHECK(n >= 1, "spanning path requires at least one vertex");
    PGF_CHECK(start < n, "spanning path start out of range");
    std::vector<std::size_t> path;
    path.reserve(n);
    std::vector<char> visited(n, 0);

    std::vector<double> row;
    if constexpr (graph_detail::HasRowFill<Sim>::value) row.resize(n);
    const bool pooled =
        pool != nullptr && n >= graph_detail::kParallelScanThreshold;

    std::size_t tail = start;
    visited[tail] = 1;
    path.push_back(tail);
    for (std::size_t step = 1; step < n; ++step) {
        // argmax over unvisited vertices; the serial scan keeps the first
        // (lowest index) maximum, the chunked reduction combines chunks in
        // index order with a strict comparison — same winner.
        std::size_t best = n;
        if constexpr (graph_detail::HasRowFill<Sim>::value) {
            auto fill_range = [&](std::size_t begin, std::size_t end) {
                similarity.fill_row_range(tail, begin, end,
                                          row.data() + begin);
            };
            if (pooled) {
                pool->parallel_for(n, fill_range);
            } else {
                fill_range(0, n);
            }
        }
        auto scan = [&](std::size_t begin, std::size_t end) {
            std::size_t local_best = n;
            double local_sim = -1.0;
            for (std::size_t v = begin; v < end; ++v) {
                if (visited[v]) continue;
                double s;
                if constexpr (graph_detail::HasRowFill<Sim>::value) {
                    s = row[v];
                } else {
                    s = similarity(tail, v);
                }
                if (s > local_sim) {
                    local_sim = s;
                    local_best = v;
                }
            }
            return std::pair<double, std::size_t>{local_sim, local_best};
        };
        if (pooled) {
            auto won = pool->map_reduce(
                n, std::pair<double, std::size_t>{-1.0, n}, scan,
                [](const std::pair<double, std::size_t>& acc,
                   const std::pair<double, std::size_t>& v) {
                    return v.first > acc.first ? v : acc;
                });
            best = won.second;
        } else {
            best = scan(0, n).second;
        }
        visited[best] = 1;
        path.push_back(best);
        tail = best;
    }
    return path;
}

/// Total similarity along consecutive path edges (higher = "shorter" path
/// in distance terms — used to sanity-check the heuristic in tests).
template <typename Sim>
double path_similarity(const std::vector<std::size_t>& path,
                       const Sim& similarity) {
    double total = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        total += similarity(path[i - 1], path[i]);
    }
    return total;
}

}  // namespace pgf

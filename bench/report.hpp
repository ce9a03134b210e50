// The one machine-readable bench artifact, schema pgf-bench-v2, in the
// shape perfbench/src/report.cpp writes:
//
//   {"schema": "pgf-bench-v2", "name": ...,
//    "host": {nproc, cpu, compiler, build_type, git_rev, cpu_steal_share,
//             seed},
//    "params": {...},
//    "metrics": {"<cell>/<field>": {"value", "unit", "better"}, ...}}
//
// Every --bench-json file of the harness is one of these; tools/bench_diff
// compares two of them key by key, each in its metric's `better`
// direction. The build type and git revision are stamped when the bench
// tree is configured.
//
// Part of bench/common.hpp's surface; unit-tested in
// tests/bench/test_report.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pgf/parallel/query_engine.hpp"
#include "pgf/storage/buffer_pool.hpp"

namespace pgf::bench {

enum class Better { kLower, kHigher };

class BenchReport {
public:
    BenchReport(std::string name, std::uint64_t seed);

    void param(const std::string& key, double value);
    void param(const std::string& key, const std::string& value);

    /// Adds metric "<cell>/<field>" (a key may be added once).
    void metric(const std::string& cell, const std::string& field,
                double value, const std::string& unit, Better better);

    /// A serving cell's throughput and latency: qps, mean/p50/p95/p99/max.
    void serving(const std::string& cell, const ServingReport& r);

    /// A buffer pool's counters: hit_rate, hits, misses, evictions,
    /// writebacks.
    void pool(const std::string& cell, const BufferPool::Stats& s);

    std::string json() const;

    /// Writes json() to `path` with a status line on stderr; true on
    /// success.
    bool write(const std::string& path) const;

private:
    struct Metric {
        std::string key;
        double value = 0.0;
        std::string unit;
        Better better = Better::kLower;
    };

    std::string name_;
    std::uint64_t seed_;
    std::vector<std::pair<std::string, std::string>> params_;  // JSON values
    std::vector<Metric> metrics_;
};

}  // namespace pgf::bench

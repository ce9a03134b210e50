#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "pgf/util/check.hpp"

#ifndef PGF_BENCH_BUILD_TYPE
#define PGF_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PGF_BENCH_GIT_REV
#define PGF_BENCH_GIT_REV "unknown"
#endif

namespace pgf::bench {
namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;  // drop controls
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto start = line.find_first_not_of(" \t:", line.find(':'));
        return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// (steal, total) jiffies over all CPUs from /proc/stat; zeros if
/// unreadable.
std::pair<double, double> cpu_jiffies() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int field = 0; field < 8 && (in >> v); ++field) {
        total += v;
        if (field == 7) steal = v;
    }
    return {steal, total};
}

const std::pair<double, double> g_start_jiffies = cpu_jiffies();

/// Share of CPU time the hypervisor took since the process started.
double steal_share() {
    const auto [steal, total] = cpu_jiffies();
    const double dt = total - g_start_jiffies.second;
    return dt > 0.0 ? (steal - g_start_jiffies.first) / dt : 0.0;
}

}  // namespace

BenchReport::BenchReport(std::string name, std::uint64_t seed)
    : name_(std::move(name)), seed_(seed) {}

void BenchReport::param(const std::string& key, double value) {
    params_.emplace_back(key, json_number(value));
}

void BenchReport::param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, json_string(value));
}

void BenchReport::metric(const std::string& cell, const std::string& field,
                         double value, const std::string& unit,
                         Better better) {
    std::string key = cell + "/" + field;
    PGF_CHECK(std::none_of(metrics_.begin(), metrics_.end(),
                           [&key](const Metric& m) { return m.key == key; }),
              "bench report: duplicate metric key");
    metrics_.push_back(Metric{std::move(key), value, unit, better});
}

void BenchReport::serving(const std::string& cell, const ServingReport& r) {
    metric(cell, "qps", r.qps, "1/s", Better::kHigher);
    metric(cell, "mean_ms", r.mean_ms, "ms", Better::kLower);
    metric(cell, "p50_ms", r.p50_ms, "ms", Better::kLower);
    metric(cell, "p95_ms", r.p95_ms, "ms", Better::kLower);
    metric(cell, "p99_ms", r.p99_ms, "ms", Better::kLower);
    metric(cell, "max_ms", r.max_ms, "ms", Better::kLower);
}

void BenchReport::pool(const std::string& cell, const BufferPool::Stats& s) {
    metric(cell, "hit_rate", s.hit_rate(), "ratio", Better::kHigher);
    metric(cell, "hits", static_cast<double>(s.hits), "count",
           Better::kHigher);
    metric(cell, "misses", static_cast<double>(s.misses), "count",
           Better::kLower);
    metric(cell, "evictions", static_cast<double>(s.evictions), "count",
           Better::kLower);
    metric(cell, "writebacks", static_cast<double>(s.writebacks), "count",
           Better::kLower);
}

std::string BenchReport::json() const {
    std::ostringstream out;
    out << "{\"schema\": \"pgf-bench-v2\", \"name\": " << json_string(name_)
        << ",\n \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(kCompiler)
        << ", \"build_type\": " << json_string(PGF_BENCH_BUILD_TYPE)
        << ", \"git_rev\": " << json_string(PGF_BENCH_GIT_REV)
        << ", \"cpu_steal_share\": " << json_number(steal_share())
        << ", \"seed\": " << seed_ << "},\n \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(params_[i].first) << ": "
            << params_[i].second;
    }
    out << "},\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out << (i == 0 ? "\n  " : ",\n  ") << json_string(m.key)
            << ": {\"value\": " << json_number(m.value)
            << ", \"unit\": " << json_string(m.unit) << ", \"better\": \""
            << (m.better == Better::kHigher ? "higher" : "lower") << "\"}";
    }
    out << "\n }}\n";
    return out.str();
}

bool BenchReport::write(const std::string& path) const {
    std::ofstream out(path);
    out << json();
    // stderr, so stdout stays byte-identical with and without the file.
    std::cerr << "[bench-json] " << (out ? "" : "FAILED to write ") << path
              << "\n";
    return static_cast<bool>(out);
}

}  // namespace pgf::bench

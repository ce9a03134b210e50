// Metric registry, result/report writers, tracer aggregation and helpers.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace pgfbench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;
};

// The end-to-end metrics, in BENCHMARK.json order. Every workload sets
// every one of them (README.md says what each means per workload).
constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s", "higher"},
    {"p50_ms", "ms", "lower"},
    {"p99_ms", "ms", "lower"},
    {"records_per_s", "1/s", "higher"},
    {"recover_s", "s", "lower"},
    {"space_amp", "x", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"setup_s", "s", "lower"},
};

// Layers that own spans; a span belongs to the longest layer prefixing its
// name (see layer_of), and to "bench" when none does. A span in a new layer
// needs its layer listed here and a self_ms.<layer> metric below.
constexpr const char* kLayers[] = {
    "core.extsort", "gridfile",         "parallel", "storage.pool",
    "storage.page", "storage.recovery", "bench",
};

// The per-layer metrics, in BENCHMARK.json order. A workload that does not
// exercise a layer leaves its metrics at 0 (the "flat" prediction).
constexpr MetricDef kPerLayer[] = {
    {"gridfile.lookup_us", "us", "lower"},
    {"gridfile.blocks_per_query", "count", "lower"},
    {"gridfile.load_s", "s", "lower"},
    {"gridfile.insert_us.p50", "us", "lower"},
    {"gridfile.insert_us.p99", "us", "lower"},
    {"parallel.partition_us", "us", "lower"},
    {"parallel.wait_ms", "ms", "lower"},
    {"parallel.node_imbalance", "x", "lower"},
    {"parallel.engine_over_serial", "x", "lower"},
    {"decluster.resp_blocks", "count", "lower"},
    {"decluster.opt_blocks", "count", "lower"},
    {"decluster.s", "s", "lower"},
    {"storage.pool.hit_rate", "ratio", "higher"},
    {"storage.pool.engine_hit_rate", "ratio", "higher"},
    {"storage.pool.fetch_hit_ns", "ns", "lower"},
    {"storage.pool.fetch_miss_us", "us", "lower"},
    {"storage.pool.evictions", "count", "lower"},
    {"storage.pool.writebacks", "count", "lower"},
    {"storage.page.decode_ns", "ns", "lower"},
    {"storage.page.filter_ns", "ns", "lower"},
    {"storage.page.useful_ratio", "ratio", "higher"},
    {"sfc.hilbert_ns_per_key", "ns", "lower"},
    {"core.extsort.run_s", "s", "lower"},
    {"core.extsort.merge_s", "s", "lower"},
    {"core.extsort.spill_bytes", "bytes", "lower"},
    {"core.extsort.merge_passes", "count", "lower"},
    {"storage.wal.bytes_per_record", "bytes", "lower"},
    {"storage.wal.flushes", "count", "lower"},
    {"storage.recovery.replay_s", "s", "lower"},
    {"storage.recovery.wal_records", "count", "lower"},
    {"storage.recovery.pages_replayed", "count", "lower"},
    {"storage.recovery.pages_skipped", "count", "higher"},
    {"setup.gen_s", "s", "lower"},
    {"setup.paged_load_s", "s", "lower"},
    {"setup.decluster_s", "s", "lower"},
    {"self_ms.core.extsort", "ms", "lower"},
    {"self_ms.gridfile", "ms", "lower"},
    {"self_ms.parallel", "ms", "lower"},
    {"self_ms.storage.pool", "ms", "lower"},
    {"self_ms.storage.page", "ms", "lower"},
    {"self_ms.storage.recovery", "ms", "lower"},
    {"self_ms.bench", "ms", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"trace.coverage_pct", "%", "higher"},
    {"trace.spans", "count", "lower"},
    {"trace.span_cost_ns", "ns", "lower"},
};

template <std::size_t N>
const MetricDef* find_def(const MetricDef (&defs)[N], const std::string& n) {
    for (const MetricDef& d : defs) {
        if (n == d.name) return &d;
    }
    return nullptr;
}

/// Longest registered layer that prefixes `name` at a '.' boundary.
std::string layer_of(const std::string& name) {
    std::string best = "bench";
    for (const char* layer : kLayers) {
        const std::string l(layer);
        if (name.size() > l.size() && name.compare(0, l.size(), l) == 0 &&
            name[l.size()] == '.' && l.size() > best.size()) {
            best = l;
        }
    }
    return best;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable.
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

/// Share of CPU time the hypervisor took from this machine since the
/// process started: a contended host makes every timing noisier.
double steal_share() {
    const auto [steal, total] = cpu_jiffies();
    const double dt = total - g_start_jiffies.second;
    return dt > 0.0 ? (steal - g_start_jiffies.first) / dt : 0.0;
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

void Report::e2e(const std::string& name, double value) {
    const MetricDef* d = find_def(kEndToEnd, name);
    if (d == nullptr) {
        check(false, "unregistered end-to-end metric " + name);
        return;
    }
    e2e_[name] = Metric{value, d->unit, d->better};
}

void Report::layer(const std::string& name, double value) {
    const MetricDef* d = find_def(kPerLayer, name);
    if (d == nullptr) {
        check(false, "unregistered per-layer metric " + name);
        return;
    }
    layer_[name] = Metric{value, d->unit, d->better};
}

void Report::param(const std::string& name, double value) {
    params_[name] = json_number(value);
}

void Report::check(bool ok, const std::string& what, std::uint64_t ops) {
    attempted_ += ops;
    if (ok) return;
    ++failed_;
    if (failed_ <= 5) std::cerr << "pgfbench: FAILED: " << what << "\n";
}

int Report::finish() {
    for (const MetricDef& d : kEndToEnd) {
        if (e2e_.find(d.name) == e2e_.end()) {
            check(false, std::string("end-to-end metric not measured: ") +
                             d.name);
        }
    }
    for (const MetricDef& d : kPerLayer) {
        if (layer_.find(d.name) == layer_.end()) {
            layer_[d.name] = Metric{0.0, d.unit, d.better};
        }
    }
    const bool correct = failed_ == 0 && attempted_ > 0;
    const double fail_frac =
        attempted_ == 0 ? 1.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);

    // pgf-bench-v2 report: {name, params{}, metrics{key: {value, unit,
    // better}}} plus the host block.
    std::ostringstream v2;
    v2 << "{\"schema\": \"pgf-bench-v2\", \"name\": "
       << json_string("pgfbench/" + opt_.workload) << ",\n \"host\": {"
       << "\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << json_string(cpu_model())
       << ", \"compiler\": " << json_string(compiler())
       << ", \"build_type\": " << json_string(PGFBENCH_BUILD_TYPE)
       << ", \"git_rev\": " << json_string(opt_.git_rev)
       << ", \"cpu_steal_share\": " << json_number(steal_share())
       << ", \"seed\": " << opt_.seed << "},\n \"params\": {";
    bool first = true;
    for (const auto& [k, v] : params_) {
        v2 << (first ? "" : ", ") << json_string(k) << ": " << v;
        first = false;
    }
    v2 << "},\n \"metrics\": {\n  \"fail_frac\": {\"value\": "
       << json_number(fail_frac)
       << ", \"unit\": \"ratio\", \"better\": \"lower\"}";
    auto emit = [&v2](const std::map<std::string, Metric>& ms) {
        for (const auto& [k, m] : ms) {
            v2 << ",\n  " << json_string(k)
               << ": {\"value\": " << json_number(m.value)
               << ", \"unit\": " << json_string(m.unit)
               << ", \"better\": " << json_string(m.better) << "}";
        }
    };
    emit(e2e_);
    if (opt_.trace) emit(layer_);
    v2 << "\n },\n \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << "}\n";
    const std::string path = opt_.out_dir + "/report-" + opt_.workload +
                             "-seed" + std::to_string(opt_.seed) + "-trace" +
                             (opt_.trace ? "1" : "0") + ".json";
    std::ofstream(path) << v2.str();
    std::cerr << "pgfbench: report " << path << " (cpu steal "
              << 100.0 * steal_share() << "% during the run)\n";

    // The driver's line: exactly the metrics of this mode, value + unit.
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    first = true;
    auto put = [&](const char* name, const Metric& m) {
        line << (first ? "" : ", ") << json_string(name)
             << ": {\"value\": " << json_number(m.value)
             << ", \"unit\": " << json_string(m.unit) << "}";
        first = false;
    };
    if (opt_.trace) {
        for (const MetricDef& d : kPerLayer) put(d.name, layer_.at(d.name));
    } else {
        for (const MetricDef& d : kEndToEnd) {
            const auto it = e2e_.find(d.name);
            put(d.name, it != e2e_.end() ? it->second
                                         : Metric{0.0, d.unit, d.better});
        }
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
    if (!enabled_) return;
    spans_.reserve(1 << 16);
    calibrate();
}

void Tracer::calibrate() {
    constexpr int kRounds = 16;
    constexpr int kChildren = 256;
    std::vector<double> inside, outside;
    for (int r = 0; r < kRounds; ++r) {
        spans_.clear();
        current_ = -1;
        const std::int32_t parent = begin("calibrate", 0);
        for (int c = 0; c < kChildren; ++c) end(begin("calibrate.child", 0));
        end(parent);
        double child_s = 0.0;
        for (std::size_t i = 1; i < spans_.size(); ++i) {
            child_s += static_cast<double>(spans_[i].end_ns -
                                           spans_[i].start_ns) * 1e-9;
        }
        const double parent_s =
            static_cast<double>(spans_[0].end_ns - spans_[0].start_ns) * 1e-9;
        const double in = child_s / kChildren;
        inside.push_back(in);
        outside.push_back((parent_s - child_s - in) / kChildren);
    }
    inside_s_ = median(inside);
    outside_s_ = median(outside);
    spans_.clear();
    current_ = -1;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        Totals& t = out[s.name];
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        const double own_cost = inside_s_ + s.children * outside_s_;
        ++t.count;
        t.total_s += dur - inside_s_;
        t.self_s +=
            dur - static_cast<double>(child_ns[i]) * 1e-9 - own_cost;
    }
    return out;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
    std::map<std::string, double> out;
    for (const char* layer : kLayers) out[layer] = 0.0;
    for (const auto& [name, t] : totals()) out[layer_of(name)] += t.self_s;
    return out;
}

void Tracer::write_csv(const std::string& path, const std::string& tag) const {
    std::ofstream out(path);
    out << "phase,id,parent,op,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << tag << ',' << i << ',' << s.parent << ',' << s.op << ','
            << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
}

void report_trace(Report& report, const Tracer& tracer, double untraced_s,
                  double traced_s) {
    double program_self_s = 0.0;
    for (const auto& [layer, self_s] : tracer.layer_self_seconds()) {
        report.layer("self_ms." + layer, self_s * 1e3);
        if (layer != "bench") program_self_s += self_s;
    }
    if (untraced_s > 0.0) {
        report.layer("trace.overhead_pct",
                     100.0 * (traced_s - untraced_s) / untraced_s);
        report.layer("trace.coverage_pct", 100.0 * program_self_s / untraced_s);
    }
    report.layer("trace.spans", static_cast<double>(tracer.spans().size()));
    report.layer("trace.span_cost_ns", tracer.span_cost_s() * 1e9);
}

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

void progress(const std::string& phase) {
    std::cerr << "pgfbench: " << phase << " done at "
              << seconds_since(g_process_start) << " s\n";
}

std::uint64_t hash64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    k = std::min(k, values.size() - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed_p99(const std::vector<double>& samples) {
    constexpr std::size_t kWindow = 1000;
    if (samples.size() < kWindow) return quantile(samples, 0.99);
    std::vector<double> p99s;
    for (std::size_t at = 0; at + kWindow <= samples.size(); at += kWindow) {
        p99s.push_back(quantile(
            std::vector<double>(
                samples.begin() + static_cast<std::ptrdiff_t>(at),
                samples.begin() + static_cast<std::ptrdiff_t>(at + kWindow)),
            0.99));
    }
    return median(p99s);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double s = 0.0;
    for (double v : values) s += v;
    return s / static_cast<double>(values.size());
}

double peak_rss_mb() {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::string scratch_path(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("pgfbench-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)) + "-" + tag))
        .string();
}

}  // namespace pgfbench

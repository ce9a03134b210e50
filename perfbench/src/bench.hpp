// Shared plumbing of pgfbench: options, the metric report, the in-memory
// span tracer, record-multiset fingerprints and small statistics helpers.
//
// Every workload fills one Report. End-to-end metrics are measured with the
// tracer off; per-layer metrics come from a separate traced phase that
// replays the workload serially through the layers' public functions and
// records a span around each call (see README.md for the layer map).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/bucket_store.hpp"
#include "pgf/sfc/hilbert.hpp"

namespace pgfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Small inputs for the smoke test; the metric set is unchanged.
    bool smoke = false;
    /// Corrupts one verified result on purpose, so a test can prove the
    /// correctness checks catch a wrong answer.
    bool inject_fault = false;
    std::string out_dir = ".bench_out";
    std::string git_rev = "unknown";
};

/// One named metric: value, unit, and which direction is better.
struct Metric {
    double value = 0.0;
    std::string unit;
    std::string better;  ///< "higher" or "lower"
};

/// The outcome of one benchmark run. `e2e` holds the end-to-end metrics
/// (printed with --trace 0), `layer` the per-layer metrics (printed with
/// --trace 1); both also go into the pgf-bench-v2 report file.
class Report {
public:
    explicit Report(const Options& opt) : opt_(opt) {}

    void e2e(const std::string& name, double value);
    void layer(const std::string& name, double value);
    void param(const std::string& name, const std::string& value) {
        params_[name] = "\"" + value + "\"";
    }
    void param(const std::string& name, double value);

    /// Counts operations whose output was checked; `ok` false records a
    /// failure (and prints `what` for the first few).
    void check(bool ok, const std::string& what, std::uint64_t ops = 1);

    /// Prints the driver's result line (last line of stdout) and writes
    /// the pgf-bench-v2 report. Returns the process exit code.
    int finish();

private:
    const Options& opt_;
    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layer_;
    std::map<std::string, std::string> params_;  // name -> JSON literal
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// In-memory span recorder. Spans nest through a current-span cursor
/// (only the benchmark's own thread records). Disabled tracers record
/// nothing, so the same replay code runs traced and untraced.
class Tracer {
public:
    struct Span {
        const char* name = "";
        std::int32_t parent = -1;
        std::uint64_t op = 0;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint32_t children = 0;
    };

    /// An enabled tracer first calibrates its own cost (see calibrate()).
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    const std::vector<Span>& spans() const { return spans_; }

    std::int32_t begin(const char* name, std::uint64_t op) {
        if (!enabled_) return -1;
        const auto idx = static_cast<std::int32_t>(spans_.size());
        if (current_ >= 0) {
            ++spans_[static_cast<std::size_t>(current_)].children;
        }
        spans_.push_back(Span{name, current_, op, now_ns(), 0, 0});
        current_ = idx;
        return idx;
    }
    void end(std::int32_t idx) {
        if (idx < 0) return;
        spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
        current_ = spans_[static_cast<std::size_t>(idx)].parent;
    }
    void rename(std::int32_t idx, const char* name) {
        if (idx >= 0) spans_[static_cast<std::size_t>(idx)].name = name;
    }
    /// Duration of a finished span, net of the tracer's own cost inside
    /// it (its clock read plus its children's bookkeeping).
    double seconds_of(std::int32_t idx) const {
        if (idx < 0) return 0.0;
        const Span& s = spans_[static_cast<std::size_t>(idx)];
        return static_cast<double>(s.end_ns - s.start_ns) * 1e-9 -
               inside_s_ - s.children * outside_s_;
    }

    /// Per span name: call count, total and self time (self = duration
    /// minus the time covered by direct children). Both are corrected for
    /// the tracer's own cost: the clock read inside every span, and the
    /// bookkeeping each child span adds to its parent.
    struct Totals {
        std::uint64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /// Full cost of one span to the traced code (calibrated), in seconds.
    double span_cost_s() const { return inside_s_ + outside_s_; }

    /// Self time summed per layer (the longest known layer prefix of each
    /// span name; see kLayers in report.cpp).
    std::map<std::string, double> layer_self_seconds() const;

    /// Writes every span as CSV to `path`
    /// (phase,id,parent,op,name,start_ns,end_ns).
    void write_csv(const std::string& path, const std::string& tag) const;

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    /// Times empty spans: inside_s_ is the duration an empty span reports,
    /// outside_s_ the extra time one child adds to its parent's self time.
    void calibrate();

    bool enabled_;
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
    double inside_s_ = 0.0;
    double outside_s_ = 0.0;
};

/// RAII span.
class Scope {
public:
    Scope(Tracer& t, const char* name, std::uint64_t op = 0)
        : t_(t), idx_(t.begin(name, op)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void rename(const char* name) { t_.rename(idx_, name); }
    std::int32_t index() const { return idx_; }

private:
    Tracer& t_;
    std::int32_t idx_;
};

/// Order-independent fingerprint of a record multiset: two multisets with
/// equal fingerprints are equal up to a ~2^-64 collision chance.
struct Fingerprint {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t mix = 0;
    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::uint64_t hash64(std::uint64_t x);

/// Fingerprint over (point, id), or over the point alone when the two
/// sides assign ids differently.
template <std::size_t D>
Fingerprint fingerprint(const std::vector<pgf::GridRecord<D>>& records,
                        bool with_id = true) {
    Fingerprint f;
    for (const pgf::GridRecord<D>& r : records) {
        // Multiply-rotate over the record's words, then one full mix.
        std::uint64_t h = with_id ? r.id : 0;
        for (std::size_t i = 0; i < D; ++i) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &r.point.x[i], sizeof(bits));
            h = (h ^ bits) * 0x9e3779b97f4a7c15ULL;
            h = (h << 29) | (h >> 35);
        }
        h = hash64(h);
        ++f.count;
        f.sum += h;
        f.mix += h * (h | 1);
    }
    return f;
}

/// Prints "<phase> done at <t> s" (time since process start) to stderr.
void progress(const std::string& phase);

/// Exact order statistic at quantile q in [0, 1] (nearest rank).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// p99 of each window of 1000 consecutive samples (10 samples beyond it),
/// and the median over the windows: one stalled stretch of a run moves
/// only its own window. Falls back to the p99 of all samples when there is
/// less than one full window.
double windowed_p99(const std::vector<double>& samples);
double mean(const std::vector<double>& values);

/// Process peak resident set in MB.
double peak_rss_mb();

/// File size in bytes (0 when missing).
std::uint64_t file_bytes(const std::string& path);

/// A fresh path for a scratch file of this run (under $TMPDIR, which
/// main() points into the output directory).
std::string scratch_path(const std::string& tag);

/// Times `probe_keys` Hilbert keys of `points` (quantized to 16 bits per
/// axis, as the external sort does) through sfc::hilbert_index.
template <std::size_t D>
double hilbert_ns_per_key(const std::vector<pgf::Point<D>>& points,
                          const pgf::Rect<D>& domain) {
    constexpr unsigned kBits = 16;
    const std::size_t n = std::min<std::size_t>(points.size(), 100000);
    std::vector<std::array<std::uint32_t, D>> cells(n);
    const double cells_per_axis = static_cast<double>(1u << kBits);
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < D; ++i) {
            const double t = (points[k][i] - domain.lo[i]) / domain.extent(i);
            const double c = std::clamp(t * cells_per_axis, 0.0,
                                        cells_per_axis - 1.0);
            cells[k][i] = static_cast<std::uint32_t>(c);
        }
    }
    // Repeat whole passes until the probe has run for at least 50 ms.
    std::uint64_t sink = 0;
    std::uint64_t keys = 0;
    const auto t0 = Clock::now();
    do {
        for (const auto& c : cells) {
            sink ^= pgf::sfc::hilbert_index(
                std::span<const std::uint32_t>(c.data(), D), kBits);
        }
        keys += n;
    } while (n > 0 && seconds_since(t0) < 0.05);
    const double s = seconds_since(t0);
    volatile std::uint64_t keep = sink;
    (void)keep;
    return keys > 0 ? s * 1e9 / static_cast<double>(keys) : 0.0;
}

void run_serve(const Options& opt, Report& report, bool hot);
void run_build_stream(const Options& opt, Report& report);
void run_ingest_wal(const Options& opt, Report& report);

/// Owns a paged grid file and deletes its backing file with it.
template <typename File>
class OwnedFile {
public:
    OwnedFile() = default;
    OwnedFile(const OwnedFile&) = delete;
    OwnedFile& operator=(const OwnedFile&) = delete;
    ~OwnedFile() { reset(); }

    File& operator*() const { return *file_; }
    File* operator->() const { return file_.get(); }

    /// Drops the current file (and its backing file), then adopts `next`.
    void reset(std::unique_ptr<File> next = nullptr) {
        if (file_ != nullptr) {
            const std::string path = file_->path();
            file_.reset();
            std::remove(path.c_str());
        }
        file_ = std::move(next);
    }

private:
    std::unique_ptr<File> file_;
};

/// Set-up helper: runs `fn` `reps` times and returns the median seconds.
template <typename Fn>
double median_setup(int reps, Fn&& fn) {
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        times.push_back(seconds_since(t0));
    }
    return median(times);
}

/// Records the per-layer self times (ms) and trace bookkeeping shared by
/// every workload's traced phase. `untraced_s` is the untraced time of the
/// same unit of work, `traced_s` the traced one.
void report_trace(Report& report, const Tracer& tracer, double untraced_s,
                  double traced_s);

}  // namespace pgfbench

#include "common.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <thread>

namespace pgf::bench {
namespace {

unsigned default_threads() {
    if (const char* env = std::getenv("PGF_THREADS")) {
        const long v = std::atol(env);
        if (v > 0) return static_cast<unsigned>(v);
    }
    return 0;  // resolved to hardware concurrency
}

unsigned default_inner_threads() {
    if (const char* env = std::getenv("PGF_INNER_THREADS")) {
        const long v = std::atol(env);
        if (v >= 0) return static_cast<unsigned>(v);
    }
    return 1;  // inner scans stay serial unless asked for
}

std::string default_backend() {
    if (const char* env = std::getenv("PGF_BACKEND")) {
        if (*env != '\0') return env;
    }
    return "memory";
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
    Cli cli(argc, argv);
    if (!cli.check_flags({"csv-dir", "queries", "seed", "threads",
                          "inner-threads", "bench-json", "backend",
                          "node-pool-pages", "full"})) {
        std::exit(2);
    }
    csv_dir = cli.get_string("csv-dir", "");
    queries = static_cast<std::size_t>(cli.get_int("queries", 1000));
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    threads = static_cast<unsigned>(
        cli.get_int("threads", static_cast<std::int64_t>(default_threads())));
    inner_threads = static_cast<unsigned>(cli.get_int(
        "inner-threads", static_cast<std::int64_t>(default_inner_threads())));
    bench_json = cli.get_string("bench-json", "");
    backend = cli.get_string("backend", default_backend());
    if (backend != "memory" && backend != "paged") {
        std::cerr << "unknown --backend '" << backend
                  << "' (expected memory|paged)\n";
        std::exit(2);
    }
    node_pool_pages =
        static_cast<std::size_t>(cli.get_int("node-pool-pages", 1024));
    const char* env = std::getenv("PGF_FULL_SCALE");
    full_scale = cli.get_bool("full", env != nullptr &&
                                          std::string(env) == "1");
}

unsigned Options::resolved_threads() const {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned Options::resolved_inner_threads() const {
    if (inner_threads != 0) return inner_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::unique_ptr<ThreadPool> make_inner_pool(const Options& opt) {
    const unsigned threads = opt.resolved_inner_threads();
    if (threads <= 1) return nullptr;
    // parallelism = workers + the calling thread.
    return std::make_unique<ThreadPool>(threads - 1);
}

void print_banner(const Options& opt, const std::string& experiment,
                  const std::string& note) {
    std::cout << "==============================================================\n"
              << experiment << "\n"
              << note << "\n"
              << "queries/config=" << opt.queries << " seed=" << opt.seed
              << (opt.full_scale ? " [full scale]" : "") << "\n"
              << "==============================================================\n";
}

void emit(const Options& opt, const TextTable& table, const std::string& name) {
    std::cout << "\n-- " << name << "\n";
    table.print(std::cout);
    if (!opt.csv_dir.empty()) {
        std::string path = opt.csv_dir + "/" + name + ".csv";
        if (table.write_csv(path)) {
            std::cout << "[csv] " << path << "\n";
        } else {
            std::cout << "[csv] FAILED to write " << path << "\n";
        }
    }
    std::cout.flush();
}

std::vector<std::uint32_t> disk_sweep() {
    std::vector<std::uint32_t> disks;
    for (std::uint32_t m = 4; m <= 32; m += 2) disks.push_back(m);
    return disks;
}

std::string unique_backing_path(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    std::string safe;
    for (char c : tag) {
        safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                 c == '-')
                    ? c
                    : '_';
    }
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    return dir + "/pgf-bench-" + safe + "-" +
           std::to_string(static_cast<long long>(::getpid())) + "-" +
           std::to_string(counter.fetch_add(1)) + ".paged";
}

namespace {
std::unique_ptr<ThreadPool> make_sweep_pool(const Options& opt) {
    const unsigned threads = opt.resolved_threads();
    // parallelism = workers + the calling thread.
    if (threads > 1) return std::make_unique<ThreadPool>(threads - 1);
    return nullptr;
}
}  // namespace

// runner_ is initialized in the member list (pool_ is declared first):
// SweepRunner owns a stats mutex now, so it is neither movable nor
// reassignable after construction.
SweepHarness::SweepHarness(const Options& opt, std::string binary)
    : opt_(opt),
      pool_(make_sweep_pool(opt)),
      inner_pool_(make_inner_pool(opt)),
      runner_(pool_.get(), opt.seed),
      report_(std::move(binary), opt.seed) {
    report_.param("threads", opt.resolved_threads());
    report_.param("inner_threads", opt.resolved_inner_threads());
    report_.param("queries", static_cast<double>(opt.queries));
}

void SweepHarness::record_wall(const std::string& name, double wall_ms) {
    report_.metric(name, "wall_ms", wall_ms, "ms", Better::kLower);
    total_ms_ += wall_ms;
}

bool SweepHarness::write_timings() {
    if (opt_.bench_json.empty()) return true;
    report_.metric("total", "wall_ms", total_ms_, "ms", Better::kLower);
    return report_.write(opt_.bench_json);
}

}  // namespace pgf::bench

#include "common.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <thread>

namespace pgf::bench {
namespace {

[[noreturn]] void usage_exit(const std::string& message) {
    std::cerr << message << "\n";
    std::exit(2);
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
    Cli cli(argc, argv);
    if (!cli.check_flags({"csv-dir", "queries", "seed", "threads",
                          "inner-threads", "bench-json", "node-pool-pages",
                          "full"})) {
        std::exit(2);
    }
    try {
        csv_dir = cli.get_string("csv-dir", "");
        queries = cli.get_int<std::size_t>("queries", 1000);
        seed = cli.get_int<std::uint64_t>("seed", 1);
        // 0 = hardware concurrency.
        threads = cli.get_int<unsigned>(
            "threads", env_int<unsigned>("PGF_THREADS").value_or(0));
        inner_threads = cli.get_int<unsigned>(
            "inner-threads",
            env_int<unsigned>("PGF_INNER_THREADS").value_or(1));
        bench_json = cli.get_string("bench-json", "");
        node_pool_pages = cli.get_int<std::size_t>("node-pool-pages", 1024);
        const char* env = std::getenv("PGF_FULL_SCALE");
        full_scale =
            cli.get_bool("full", env != nullptr && std::string(env) == "1");
    } catch (const UsageError& e) {
        usage_exit(cli.program() + ": " + e.what());
    }
}

std::optional<std::uint64_t> env_count(const char* var) {
    try {
        return env_int<std::uint64_t>(var);
    } catch (const UsageError& e) {
        usage_exit(e.what());
    }
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

// pgfbench — one benchmark for pgf, driven from outside through the public
// API (README.md describes the workloads and metrics).
//
//   pgfbench --workload <serve_hot|serve_cold|build_stream|ingest_wal>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--inject-fault] [--out-dir <dir>] [--git-rev <rev>]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The full pgf-bench-v2 report (and, traced, the span
// dump) goes to --out-dir. Exit code 0 only when every check passed.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
    std::cerr << "pgfbench: " << why
              << "\nusage: pgfbench --workload <serve_hot|serve_cold|"
                 "build_stream|ingest_wal> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--inject-fault] [--out-dir <dir>] "
                 "[--git-rev <rev>]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    pgfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) return {};
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                opt.trace = std::stoi(value()) != 0;
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else if (arg == "--inject-fault") {
                opt.inject_fault = true;
            } else if (arg == "--out-dir") {
                opt.out_dir = value();
            } else if (arg == "--git-rev") {
                opt.git_rev = value();
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + arg);
        }
    }
    if (opt.seconds <= 0.0) return usage("--seconds must be positive");

    // Every scratch file (paged files, logs, sort runs) lives in a private
    // directory under the output directory: point TMPDIR there before any
    // pgf code runs, and remove it when the run ends.
    const std::filesystem::path tmp = std::filesystem::absolute(opt.out_dir) /
                                      "tmp" / std::to_string(::getpid());
    std::filesystem::create_directories(tmp);
    ::setenv("TMPDIR", tmp.c_str(), 1);

    pgfbench::Report report(opt);
    try {
        if (opt.workload == "serve_hot") {
            pgfbench::run_serve(opt, report, /*hot=*/true);
        } else if (opt.workload == "serve_cold") {
            pgfbench::run_serve(opt, report, /*hot=*/false);
        } else if (opt.workload == "build_stream") {
            pgfbench::run_build_stream(opt, report);
        } else if (opt.workload == "ingest_wal") {
            pgfbench::run_ingest_wal(opt, report);
        } else {
            return usage("unknown workload '" + opt.workload + "'");
        }
    } catch (const std::exception& e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    report.e2e("peak_rss_mb", pgfbench::peak_rss_mb());
    const int code = report.finish();
    std::error_code ec;
    std::filesystem::remove_all(tmp, ec);
    return code;
}

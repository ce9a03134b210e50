#!/usr/bin/env python3
"""Builds pgfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <serve_hot|serve_cold|build_stream|
        ingest_wal> --seed <n> --seconds <s> --trace <0|1>
        [--smoke] [--inject-fault]

The benchmark package (perfbench/CMakeLists.txt) compiles the pgf library
from ../src in Release mode into $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check that build. Scratch files (removed at exit),
pgf-bench-v2 reports and span dumps go to .bench_out/. The last line of
stdout is the benchmark's result object; the exit code is non-zero when the
build fails, the sources are missing, or any correctness check failed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False
    return done.returncode == 0


def build(build_dir):
    """Configures (first time) and builds pgfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no pgf sources under {ROOT / 'src'}; nothing to benchmark")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_logged(["cmake", "--build", str(build_dir), "-j", "4",
                       "--target", "pgfbench"], BUILD_TIMEOUT_S):
        return None
    exe = build_dir / "pgfbench"
    return exe if exe.is_file() else None


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ROOT / ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = pathlib.Path.cwd() / build_dir
    exe = build(build_dir.resolve())
    if exe is None:
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--git-rev", git_rev()]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"pgfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Regenerates every committed bench/results/BENCH_*.json on this host.
# Configures and builds the release-bench preset (configuring stamps the
# current git revision into each pgf-bench-v2 host block), then reruns the
# invocation behind each artifact. Takes no arguments:
#
#   scripts/rebaseline.sh
set -euo pipefail
[ $# -eq 0 ] || { echo "usage: scripts/rebaseline.sh" >&2; exit 2; }
cd "$(dirname "$0")/.."
# Environment overrides would change what the artifacts measure.
unset PGF_THREADS PGF_INNER_THREADS PGF_BUILD_CACHE PGF_BACKEND \
      PGF_FULL_SCALE PGF_EXTBUILD_N PGF_EXTBUILD_HUGE PGF_WAL_N

cmake --preset release-bench
cmake --build --preset release-bench

bin=build-release/bench
out=bench/results
run() {  # run <binary> [args...]; stdout is the paper text, not needed
    echo "rebaseline: $*" >&2
    "$bin/$@" > /dev/null
}
run fig6_comparison --threads 1 --bench-json "$out/BENCH_sweep_fig6_t1.json"
run fig6_comparison --threads 8 --bench-json "$out/BENCH_sweep_fig6_t8.json"
run fig6_comparison --queries 120 --threads 1 --inner-threads 2 \
    --bench-json "$out/BENCH_sweep_fig6_inner2.json"
run micro_benchmarks --csv-dir "$out" --benchmark_min_time=0.01
run micro_benchmarks \
    --benchmark_filter='ProximityRow|ProximityTile|CenterRow|InnerThreads' \
    --benchmark_min_time=0.2 --benchmark_out="$out/BENCH_kernels.json" \
    --benchmark_out_format=json
run micro_benchmarks \
    --benchmark_filter='GridFileInsert|GridFileBuildBulk|DirectoryExpand|BuildCacheHit' \
    --benchmark_min_time=0.2 --benchmark_out="$out/BENCH_build.json" \
    --benchmark_out_format=json
run ext_serving --bench-json "$out/BENCH_serving.json"
run ext_caching --bench-json "$out/BENCH_caching.json"
run ext_build --queries 200 --bench-json "$out/BENCH_extbuild.json"
run ext_wal --bench-json "$out/BENCH_wal.json"
echo "rebaseline: every $out/BENCH_*.json rewritten" >&2

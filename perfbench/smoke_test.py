#!/usr/bin/env python3
"""Smoke test of pgfbench.

Runs every workload named in BENCHMARK.json, and serve_hot, in its small
--smoke mode, untraced and traced, and checks that

  * the run passes every correctness check (fail_frac == 0) and exits 0;
  * the result line carries exactly the metrics BENCHMARK.json names for
    that mode, each with its declared unit (end-to-end values non-zero);
  * a run with --inject-fault, which corrupts one checked result on
    purpose, is caught: correct is false, failed >= 1, exit code non-zero.

    python3 perfbench/smoke_test.py
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # serve_hot stays runnable but is not in BENCHMARK.json (README.md says
    # why), so it is named here.
    workloads = [w["name"] for w in spec["workloads"]] + ["serve_hot"]
    for workload in workloads:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            code, result, err = run(workload, trace)
            if result is None:
                expect(False, f"{tag}: no result line\n{err[-2000:]}")
                continue
            expect(code == 0, f"{tag}: exit code {code}")
            expect(result.get("correct") is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{tag}: fail_frac == 0 "
                   f"({result['failed']}/{result['attempted']})")
            metrics = result["metrics"]
            expect(set(metrics) == set(expected[trace]),
                   f"{tag}: emits exactly the declared metrics "
                   f"(missing {sorted(set(expected[trace]) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(expected[trace]))})")
            expect(all(metrics[n]["unit"] == u
                       for n, u in expected[trace].items() if n in metrics),
                   f"{tag}: units match BENCHMARK.json")
            if trace == 0:
                expect(all(m["value"] > 0 for m in metrics.values()),
                       f"{tag}: every end-to-end metric is non-zero")

        code, result, _ = run(workload, 0, "--inject-fault")
        expect(code != 0 and result is not None
               and result["correct"] is False and result["failed"] >= 1,
               f"{workload}: a corrupted result is caught")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

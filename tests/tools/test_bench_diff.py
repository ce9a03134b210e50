#!/usr/bin/env python3
"""Exit codes of tools/bench_diff over small fixtures.

    python3 tests/tools/test_bench_diff.py tools/bench_diff
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = None  # set from argv in main()


def v2(metrics, **extra):
    """A pgf-bench-v2 report; metrics maps key -> (value, better)."""
    return {"schema": "pgf-bench-v2", "name": "fixture",
            "host": {"nproc": 4, "seed": 1}, "params": {},
            "metrics": {k: {"value": v, "unit": "ms", "better": b}
                        for k, (v, b) in metrics.items()}, **extra}


def gbench(times_ns):
    return {"context": {}, "benchmarks": [
        {"name": n, "run_type": "iteration", "real_time": t,
         "time_unit": "ns"} for n, t in times_ns.items()]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def file(self, name, content):
        path = self.dir / name
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        return str(path)

    def diff(self, old, new, *extra):
        done = subprocess.run(
            [sys.executable, BENCH_DIFF, self.file("old.json", old),
             self.file("new.json", new), *extra],
            capture_output=True, text=True, check=False)
        return done.returncode

    def test_lower_is_better_metric_rising_past_threshold_fails(self):
        self.assertEqual(self.diff(v2({"c/p99_ms": (1.0, "lower")}),
                                   v2({"c/p99_ms": (1.2, "lower")})), 1)

    def test_higher_is_better_metric_falling_past_threshold_fails(self):
        self.assertEqual(self.diff(v2({"c/qps": (100.0, "higher")}),
                                   v2({"c/qps": (80.0, "higher")})), 1)

    def test_changes_within_threshold_or_for_the_better_pass(self):
        old = v2({"c/qps": (100.0, "higher"), "c/p99_ms": (1.0, "lower")})
        self.assertEqual(self.diff(old, v2({"c/qps": (95.0, "higher"),
                                            "c/p99_ms": (1.05, "lower")})), 0)
        self.assertEqual(self.diff(old, v2({"c/qps": (300.0, "higher"),
                                            "c/p99_ms": (0.2, "lower")})), 0)
        self.assertEqual(self.diff(old, v2({"c/qps": (80.0, "higher"),
                                            "c/p99_ms": (1.0, "lower")}),
                                   "--threshold", "25"), 0)

    def test_one_sided_keys_are_listed_without_failing(self):
        self.assertEqual(self.diff(v2({"a/x": (1.0, "lower"),
                                       "b/x": (1.0, "lower")}),
                                   v2({"a/x": (1.0, "lower"),
                                       "c/x": (9.0, "lower")})), 0)

    def test_field_dropped_from_a_reported_cell_fails(self):
        self.assertEqual(self.diff(v2({"a/x": (1.0, "lower"),
                                       "a/y": (1.0, "lower")}),
                                   v2({"a/x": (1.0, "lower")})), 2)
        # perfbench keys have no '/': they all sit in one cell.
        self.assertEqual(self.diff(v2({"qps": (1.0, "higher"),
                                       "p99_ms": (1.0, "lower")}),
                                   v2({"qps": (1.0, "higher")})), 2)
        # A dropped field fails even when a shared one also regressed.
        self.assertEqual(self.diff(v2({"a/x": (1.0, "lower"),
                                       "a/y": (1.0, "lower")}),
                                   v2({"a/x": (9.0, "lower")})), 2)

    def test_google_benchmark_pair(self):
        self.assertEqual(self.diff(gbench({"BM_A": 1000.0, "BM_B": 50.0}),
                                   gbench({"BM_A": 1040.0, "BM_B": 45.0})), 0)
        self.assertEqual(self.diff(gbench({"BM_A": 1000.0}),
                                   gbench({"BM_A": 2000.0})), 1)
        # A filtered google-benchmark run lists what it skipped.
        self.assertEqual(self.diff(gbench({"BM_A/1": 1.0, "BM_A/2": 1.0}),
                                   gbench({"BM_A/1": 1.0})), 0)

    def test_perfbench_report_against_itself(self):
        report = v2({"fail_frac": (0.0, "lower"), "qps": (9903.0, "higher"),
                     "p99_ms": (0.78, "lower")},
                    correct=True, attempted=28000, failed=0)
        report["name"] = "pgfbench/serve_cold"
        report["host"].update(cpu="x86", compiler="gcc 12",
                              build_type="Release", git_rev="abc",
                              cpu_steal_share=0.01)
        self.assertEqual(self.diff(report, report), 0)

    def test_mixed_formats_fail(self):
        self.assertEqual(self.diff(gbench({"BM_A": 1.0}),
                                   v2({"BM_A": (1.0, "lower")})), 2)

    def test_unreadable_file_fails(self):
        self.assertEqual(self.diff("{not json", v2({"a/x": (1.0, "lower")})),
                         2)
        self.assertEqual(self.diff({"schema": "pgf-bench-v1"},
                                   {"schema": "pgf-bench-v1"}), 2)
        self.assertEqual(self.diff(v2({"a/x": (1.0, "sideways")}),
                                   v2({"a/x": (1.0, "lower")})), 2)

    def test_files_sharing_no_metric_fail(self):
        self.assertEqual(self.diff(v2({"a/x": (1.0, "lower")}),
                                   v2({"b/x": (1.0, "lower")})), 2)


def main():
    global BENCH_DIFF
    BENCH_DIFF = sys.argv.pop(1) if len(sys.argv) > 1 else str(
        pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_diff")
    unittest.main()


if __name__ == "__main__":
    main()

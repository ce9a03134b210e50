#!/usr/bin/env python3
"""Run-to-run spread of pgfbench's end-to-end metrics.

Runs one or more workloads once per seed (untraced) and prints, for every
end-to-end metric, the median over the seeds and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged.

    python3 perfbench/spread.py --workload serve_hot --seeds 5
    python3 perfbench/spread.py --seeds 10 --json spread.json   # all
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw = {}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stderr[-1500:]}")
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"\n{workload} ({args.seeds} seeds, {args.seconds:g} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = " <-- above bound/3" if spread > bounds[name] / 3 else ""
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:14s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.3f}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

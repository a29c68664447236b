#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload stabilize-1m --runs 10 [--first-seed 1]

Runs one workload once per seed (first-seed, first-seed + 1, ...) through
run.py with BENCHMARK.json's run_seconds, then prints, per end-to-end metric,
the median, the quartiles and the spread: (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles. The benchmark is
steady when every spread except setup_s is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_LINES = ("stabilize_rounds", "stabilize_s", "recover_rounds_mean",
               "recover_p95_ms", "cmds_per_s", "cmd_p99_ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            sys.exit(1)
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.5g}")
        # The paper-named lines the held-out-seed comparison reads.
        for line in done.stdout.splitlines():
            parts = line.split()
            if parts and parts[0] in PAPER_LINES:
                row.append(f"{parts[0]}={parts[1]}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 or name == "setup_s" else "WIDE"
        print(f"  {name:14s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
              f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {flag}")


if __name__ == "__main__":
    main()

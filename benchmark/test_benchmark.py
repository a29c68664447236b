#!/usr/bin/env python3
"""The benchmark's own test: every workload at reduced size, both modes.

    python3 benchmark/test_benchmark.py

For each workload and --trace 0/1 it runs run.py --small and asserts that
the last line is the result object, that the run is correct, that every
metric BENCHMARK.json declares for the mode is printed with its unit (and
nothing else), that end-to-end values are positive, and that every
correctness check of the workload ran and held, and that each layer is
measured (reads above 0) on some workload's traced run. It also asserts that a
directory holding only BENCHMARK.json and the benchmark fails without a
result line. Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Checks each workload must report as run (traced runs add the closure
# check on the two workloads whose operation the spans cover).
CHECKS = {
    "stabilize-1m": ["stabilized", "rounds_within_60k3_plus_400",
                     "post_stabilization_safety", "post_stabilization_outputs",
                     "post_stabilization_single_ticks",
                     "post_stabilization_liveness",
                     "post_stabilization_window_d_plus_2"],
    "recover-clique": ["diameter_at_most_D", "first_stabilization_within_budget",
                       "bursts_recover_within_60k3_plus_400",
                       "replayed_bursts_take_the_same_rounds"],
    "serve-mixed": ["service_results_ok", "replay_results_ok",
                    "replay_query_hash_matches_service",
                    "replay_final_hash_matches_service"],
}
TRACED_CHECKS = {
    "stabilize-1m": ["rounds_repeat_for_seed",
                     "self_times_sum_to_stabilize_s_within_10pct",
                     "span_file_written"],
    "recover-clique": ["self_times_sum_to_recovery_time_within_10pct",
                       "span_file_written"],
    "serve-mixed": ["span_file_written"],
}

# Per-layer metrics each workload's traced run must measure (read above 0);
# together they cover every layer.
MEASURED = {
    "stabilize-1m": ["graph.build_s", "graph.reorder_s", "engine.step_s",
                     "automaton.delta_ns", "check.s", "snapshot.save_ms"],
    "recover-clique": ["sched.draw_ns", "self_s.sched", "faults.inject_us",
                       "faults.churn_us", "check.ns_per_edge",
                       "core.field.patch_ns", "self_s.core.field"],
    "serve-mixed": ["core.field.patch_ns", "core.field.transitions_per_activation",
                    "self_s.core.field", "service.exec_ms.step",
                    "service.exec_ms.snapshot", "self_s.service"],
}


def run(args, cwd):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_run(workload, trace):
    done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--small"], ROOT)
    assert done.returncode == 0, f"exit {done.returncode}\n{done.stdout}{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], sorted(metrics)
    for m in declared:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, (m["name"], got["value"])
    for name in MEASURED[workload] if trace else []:
        assert metrics[name]["value"] > 0, (name, metrics[name]["value"])

    ran = {}
    for line in lines:
        if line.startswith("check "):
            _, name, verdict = line.split()
            ran[name] = verdict
    expected = CHECKS[workload] + (TRACED_CHECKS[workload] if trace else [])
    for name in expected:
        assert ran.get(name) == "ok", f"check {name}: {ran.get(name, 'did not run')}"


def check_sources_missing():
    """A directory with only BENCHMARK.json and the benchmark must fail."""
    bare = ROOT / ".bench_build" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "serve-mixed", "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout, done.stdout


def main():
    check_sources_missing()
    print("ok   sources missing -> non-zero exit, no result")
    for workload in CHECKS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok   {workload} --trace {trace}")
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()

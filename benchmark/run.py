#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the measuring binary from source
on first use (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one
workload and relays its output: human-readable lines under the paper's
metric names, then one JSON line with "correct", "attempted", "failed" and
"metrics". Exits non-zero, without a result line, when the library sources
are missing or the build fails, and non-zero when a correctness check fails.

Workloads: stabilize-1m, recover-clique, serve-mixed (see README.md).
--small runs reduced instances (the benchmark's own test uses it).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stabilize-1m", "recover-clique", "serve-mixed")
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the binary; returns its path."""
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir() / "cmake"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed", 3)
    return out / "ssau_benchmark"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    binary = build()
    scratch = build_dir() / f"run-{os.getpid()}"
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", str(scratch)]
    if args.trace:
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.small:
        command.append("--small")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

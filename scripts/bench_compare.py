#!/usr/bin/env python3
"""Bench-regression gate over BENCH_engine.json files.

Compares a freshly measured bench_engine_perf run against the committed
baseline and fails (exit 1) when any kernel regressed by more than the
allowed fraction.

The gated metric is the *normalized* per-cell speedup (fast mode over legacy
mode, per algorithm x scheduler — the "speedups" array), not raw
activations/sec: the baseline is recorded on a developer machine while CI
runs on whatever runner it gets, so absolute throughput is not comparable
across the two, but the fast-kernel-over-interpreter ratio on the *same*
machine and build is. A real kernel regression (say the mask kernel falling
back to the scalar path, or an allocation sneaking into the hot loop) drags
that ratio down on every machine.

Zero or missing baseline cells are reported as warnings and skipped rather
than dividing by them: a malformed baseline must neither crash the gate
(masking a real regression behind a CI crash) nor silently pass.

Raw throughput can additionally be gated with --absolute when baseline and
current come from the same machine (e.g. comparing two CI runs).

Thread-sweep scaling factors depend on the runner's core count, so they are
never compared against the committed baseline. They CAN be gated against an
absolute floor measured within the current run itself via --min-scaling.
Sweep rows exist per algorithm x scheduler x threads: the synchronous rows
cover the sharded double-buffered kernel, the laggard / random-subset / wave
rows cover the sparse-activation kernel. Specs take the form
ALGO:SCHEDULER:THREADS:FACTOR (e.g. `alg-au:laggard:2:1.1`); the three-field
form ALGO:THREADS:FACTOR defaults the scheduler to "synchronous" for
backward compatibility. CI uses these on a multi-core runner to keep both
sharded kernels' speedups real; without such a gate a parallel regression to
below-serial throughput would pass every job.

Sweep rows measured by a sharded engine also carry `barrier_wait_ns`
(nanoseconds the calling thread spent parked at the shard pool's join after
every shard was claimed — the residue of the old full-stop epoch barrier)
and `seconds` (the row's wall clock). --max-barrier-frac
ALGO[:SCHED]:THREADS:FRAC (same spec grammar as --min-scaling, scheduler
defaulting to "synchronous") requires barrier_wait_ns / (seconds * 1e9) <=
FRAC for that row: an in-run ceiling on how much of the wall clock the
caller may spend idle at the join point. A scheduling regression that
serializes the shards (one participant left holding most of the work) shows
up as the caller waiting instead of working and trips this gate even when
raw scaling still limps past its floor. Rows without the two fields fail
the gate — an engine that stopped reporting barrier time must not pass by
omission.

The single-activation table (signal field vs rescan under the single-node
daemons, "single_activation" rows keyed algorithm x scheduler) is gated the
same way via --min-speedup ALGO:SCHED:FACTOR: the row's field_over_rescan —
the delta-maintained engine over the neighborhood-rescan engine, both
measured within the current run on the same machine, so the ratio is
machine-independent — must reach FACTOR. CI uses this to keep the
signal-field layer's win real (a field that silently fell back to rescans,
or a patch path that got expensive, drags the ratio to ~1).

The churn table ("churn" rows keyed algorithm x scheduler) is gated via
--min-churn ALGO:SCHED:FACTOR on patch_over_rebuild: single-edge topology
events handled by Engine::apply_topology_delta versus the rebuild-everything
pattern, both measured within the current run — another machine-independent
ratio. A delta path that silently degraded to an O(n + m) rebuild drags it
toward 1 and fails the gate.

The snapshot table ("snapshot" rows keyed algorithm x scheduler) is gated
via --min-restore ALGO:SCHED:FACTOR on restore_over_rerun: resuming a warmed
engine from a serialized checkpoint (core/snapshot.hpp) versus re-running
the same trajectory from the initial configuration, both measured within the
current run — machine-independent like the other ratios. A restore path that
silently degraded to recompute-everything cost (say the graph digest check
re-walking edges() or load_state allocating per node) drags it toward 1 and
fails the gate.

The service table ("service" rows: concurrent sessions of mixed command
traffic multiplexed through SimulationService) is gated via --min-sessions N:
the current run must contain a service row that drove at least N sessions to
completion with positive sessions/sec throughput and a positive p99 command
latency (a row whose latency percentiles are zero means no commands actually
completed). The gate is an in-run capability floor like --min-scaling, not a
baseline ratio — absolute sessions/sec depends on the runner.

The locality table ("locality" rows keyed algorithm x scheduler: the same
workload stepped on a scrambled-layout graph versus its BFS-reordered twin)
is gated via --min-locality ALGO:SCHED:FACTOR on reorder_on_over_off:
reorder-on throughput over reorder-off, both measured within the current
run on the same build — machine-independent like the other in-run ratios,
though its magnitude scales with how badly the runner's cache hierarchy
punishes the scrambled layout, so CI floors sit below the committed
developer-machine number. A reorder that stopped improving layout (the
permutation silently becoming identity, a builder path dropping the
locality order) drags the ratio to ~1 and fails the gate.

The memory table ("memory" rows: one large instance streamed through the
two-pass GraphBuilder into a compact-configuration engine, with recursive
dynamic_memory_usage() accounting) is gated two ways. --max-bytes-per-node B
requires every memory row's bytes_per_node — total graph + engine heap over
node count — to stay at or under B: a footprint regression (wide stores
sneaking back, a per-node 64-bit member, stored per-node rng streams) fails
CI exactly like a throughput regression. --min-build-speedup FACTOR gates
the row's build_speedup — the streaming builder versus the old
materialize-an-EdgeList O(n^2) path, both re-measured within the current run
at the row's ref_nodes, so the ratio is machine-independent. Both gates fail
when no memory row carries the required fields: a bench that stopped
emitting the table must not pass by omission.

Usage:
  scripts/bench_compare.py BASELINE.json CURRENT.json [--max-regression 0.30]
                           [--absolute]
                           [--min-scaling ALGO[:SCHED]:THREADS:FACTOR ...]
                           [--max-barrier-frac ALGO[:SCHED]:THREADS:FRAC ...]
                           [--min-speedup ALGO:SCHED:FACTOR ...]
                           [--min-churn ALGO:SCHED:FACTOR ...]
                           [--min-restore ALGO:SCHED:FACTOR ...]
                           [--min-locality ALGO:SCHED:FACTOR ...]
                           [--min-sessions N]
                           [--max-bytes-per-node B] [--min-build-speedup F]
  scripts/bench_compare.py --self-check
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def as_number(value):
    """Returns the value as a float, or None when missing/non-numeric."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def index_speedups(doc):
    out = {}
    for s in doc.get("speedups", []):
        try:
            key = (s["algorithm"], s["scheduler"])
        except (KeyError, TypeError):
            continue
        out[key] = as_number(s.get("fast_over_legacy"))
    return out


def index_results(doc):
    out = {}
    for r in doc.get("results", []):
        try:
            key = (
                r["algorithm"],
                r["scheduler"],
                r["mode"],
                r["kernel"],
                r.get("threads", 1),
            )
        except (KeyError, TypeError):
            continue
        out[key] = as_number(r.get("activations_per_sec"))
    return out


def index_sweep(doc):
    """thread_sweep rows keyed by (algorithm, scheduler, threads). Rows
    written before the async sweep existed carry no scheduler field and
    default to "synchronous"."""
    out = {}
    for sweep in doc.get("thread_sweep", []):
        try:
            key = (
                sweep["algorithm"],
                sweep.get("scheduler", "synchronous"),
                sweep["threads"],
            )
        except (KeyError, TypeError):
            continue
        out[key] = {
            "scaling": as_number(sweep.get("scaling_vs_serial")),
            "rate": as_number(sweep.get("activations_per_sec")),
            "seconds": as_number(sweep.get("seconds")),
            "barrier_wait_ns": as_number(sweep.get("barrier_wait_ns")),
            "apply_phase_ns": as_number(sweep.get("apply_phase_ns")),
        }
    return out


def barrier_fraction(cell):
    """barrier_wait_ns / wall-clock-ns for a sweep cell, or None when the
    row lacks either field (older bench binary) or ran for zero time."""
    if cell is None:
        return None
    seconds = cell.get("seconds")
    barrier = cell.get("barrier_wait_ns")
    if seconds is None or barrier is None or seconds <= 0 or barrier < 0:
        return None
    return barrier / (seconds * 1e9)


def index_single_activation(doc):
    """single_activation rows keyed by (algorithm, scheduler)."""
    out = {}
    for row in doc.get("single_activation", []):
        try:
            key = (row["algorithm"], row["scheduler"])
        except (KeyError, TypeError):
            continue
        out[key] = {
            "speedup": as_number(row.get("field_over_rescan")),
            "field_rate": as_number(row.get("field_activations_per_sec")),
            "rescan_rate": as_number(row.get("rescan_activations_per_sec")),
        }
    return out


def index_churn(doc):
    """churn rows keyed by (algorithm, scheduler)."""
    out = {}
    for row in doc.get("churn", []):
        try:
            key = (row["algorithm"], row["scheduler"])
        except (KeyError, TypeError):
            continue
        out[key] = {
            "ratio": as_number(row.get("patch_over_rebuild")),
            "patch_rate": as_number(row.get("patch_events_per_sec")),
            "rebuild_rate": as_number(row.get("rebuild_events_per_sec")),
        }
    return out


def index_snapshot(doc):
    """snapshot rows keyed by (algorithm, scheduler)."""
    out = {}
    for row in doc.get("snapshot", []):
        try:
            key = (row["algorithm"], row["scheduler"])
        except (KeyError, TypeError):
            continue
        out[key] = {
            "ratio": as_number(row.get("restore_over_rerun")),
            "save_rate": as_number(row.get("save_mb_per_sec")),
            "restore_rate": as_number(row.get("restore_mb_per_sec")),
            "bytes": as_number(row.get("snapshot_bytes")),
        }
    return out


def index_locality(doc):
    """locality rows keyed by (algorithm, scheduler)."""
    out = {}
    for row in doc.get("locality", []):
        try:
            key = (row["algorithm"], row["scheduler"])
        except (KeyError, TypeError):
            continue
        out[key] = {
            "ratio": as_number(row.get("reorder_on_over_off")),
            "off_rate": as_number(row.get("off_activations_per_sec")),
            "on_rate": as_number(row.get("on_activations_per_sec")),
            "ns_off": as_number(row.get("gather_ns_per_scan_off")),
            "ns_on": as_number(row.get("gather_ns_per_scan_on")),
        }
    return out


def index_memory(doc):
    """memory rows keyed by node count (one row per measured instance)."""
    out = {}
    for row in doc.get("memory", []):
        try:
            key = row["nodes"]
        except (KeyError, TypeError):
            continue
        out[key] = {
            "bytes_per_node": as_number(row.get("bytes_per_node")),
            "bytes_per_edge": as_number(row.get("bytes_per_edge")),
            "build_seconds": as_number(row.get("build_seconds")),
            "ref_nodes": as_number(row.get("ref_nodes")),
            "build_speedup": as_number(row.get("build_speedup")),
        }
    return out


def index_service(doc):
    """service rows (one per measured pool run), in file order."""
    out = []
    for row in doc.get("service", []):
        if not isinstance(row, dict):
            continue
        out.append({
            "sessions": as_number(row.get("sessions")),
            "workers": as_number(row.get("workers")),
            "commands": as_number(row.get("commands")),
            "sessions_per_sec": as_number(row.get("sessions_per_sec")),
            "commands_per_sec": as_number(row.get("commands_per_sec")),
            "p50": as_number(row.get("p50_latency_us")),
            "p99": as_number(row.get("p99_latency_us")),
        })
    return out


def parse_min_speedup(spec):
    """ALGO:SCHED:FACTOR. Returns (algo, sched, factor) or None on a
    malformed spec."""
    parts = spec.split(":")
    if len(parts) != 3:
        return None
    algo, sched = parts[0], parts[1]
    try:
        factor = float(parts[2])
    except ValueError:
        return None
    if not algo or not sched:
        return None
    return algo, sched, factor


def parse_min_scaling(spec):
    """ALGO:SCHED:THREADS:FACTOR, or ALGO:THREADS:FACTOR with the scheduler
    defaulting to "synchronous". Returns (algo, sched, threads, factor) or
    None on a malformed spec."""
    parts = spec.split(":")
    try:
        if len(parts) == 3:
            algo, sched = parts[0], "synchronous"
            threads, factor = int(parts[1]), float(parts[2])
        elif len(parts) == 4:
            algo, sched = parts[0], parts[1]
            threads, factor = int(parts[2]), float(parts[3])
        else:
            return None
    except ValueError:
        return None
    if not algo or not sched:
        return None
    return algo, sched, threads, factor


def run_gate(baseline, current, args, out=sys.stdout, err=sys.stderr):
    floor = 1.0 - args.max_regression
    failures = []
    warnings = []

    base_speedups = {} if args.scaling_only else index_speedups(baseline)
    cur_speedups = index_speedups(current)
    for key, base in sorted(base_speedups.items()):
        cur = cur_speedups.get(key)
        if base is None or base <= 0:
            warnings.append(
                f"speedup cell {key} has zero/invalid baseline "
                f"({base!r}) — cell skipped, regenerate the baseline"
            )
            continue
        if cur is None:
            failures.append(f"speedup cell {key} missing from current run")
            continue
        ratio = cur / base
        status = "OK " if ratio >= floor else "FAIL"
        print(
            f"[{status}] {key[0]:<14} {key[1]:<16} "
            f"fast/legacy {base:6.2f}x -> {cur:6.2f}x  ({ratio:5.2f} of baseline)",
            file=out,
        )
        if ratio < floor:
            failures.append(
                f"{key[0]}/{key[1]}: fast-over-legacy speedup fell "
                f"{(1 - ratio) * 100:.0f}% below baseline "
                f"({base:.2f}x -> {cur:.2f}x)"
            )

    if args.absolute:
        base_results = index_results(baseline)
        cur_results = index_results(current)
        for key, base in sorted(base_results.items()):
            cur = cur_results.get(key)
            if base is None or base <= 0:
                warnings.append(
                    f"result cell {key} has zero/invalid baseline ({base!r}) "
                    f"— cell skipped"
                )
                continue
            if cur is None:
                warnings.append(
                    f"result cell {key} missing from current run — a "
                    f"disappeared kernel cell deserves a look"
                )
                continue
            ratio = cur / base
            status = "OK " if ratio >= floor else "FAIL"
            print(
                f"[{status}] {key}: {base:.3g} -> {cur:.3g} act/s ({ratio:5.2f})",
                file=out,
            )
            if ratio < floor:
                failures.append(
                    f"{key}: throughput fell {(1 - ratio) * 100:.0f}% below baseline"
                )

    cur_sweep = index_sweep(current)
    for (algo, sched, threads), cell in sorted(cur_sweep.items()):
        scaling = cell["scaling"]
        rate = cell["rate"]
        print(
            f"[info] thread sweep: {algo:<14} {sched:<16} "
            f"threads={threads:<3} "
            f"{rate if rate is not None else 0:.3g} act/s "
            f"({scaling if scaling is not None else 0:.2f}x vs serial)",
            file=out,
        )

    for spec in args.min_scaling:
        parsed = parse_min_scaling(spec)
        if parsed is None:
            print(f"bad --min-scaling spec '{spec}'", file=err)
            return 2
        algo, sched, threads, factor = parsed
        cell = cur_sweep.get((algo, sched, threads))
        got = cell["scaling"] if cell else None
        if got is None:
            failures.append(
                f"no thread_sweep entry for {algo} under {sched} at {threads} "
                f"threads (required by --min-scaling {spec})"
            )
            continue
        status = "OK " if got >= factor else "FAIL"
        print(
            f"[{status}] scaling gate: {algo} under {sched} @ {threads} "
            f"threads: {got:.2f}x (floor {factor:.2f}x)",
            file=out,
        )
        if got < factor:
            failures.append(
                f"{algo} under {sched} @ {threads} threads scaled only "
                f"{got:.2f}x (floor {factor:.2f}x)"
            )

    for spec in args.max_barrier_frac:
        parsed = parse_min_scaling(spec)
        if parsed is None:
            print(f"bad --max-barrier-frac spec '{spec}'", file=err)
            return 2
        algo, sched, threads, ceiling = parsed
        cell = cur_sweep.get((algo, sched, threads))
        if cell is None:
            failures.append(
                f"no thread_sweep entry for {algo} under {sched} at {threads} "
                f"threads (required by --max-barrier-frac {spec})"
            )
            continue
        frac = barrier_fraction(cell)
        if frac is None:
            failures.append(
                f"thread_sweep entry for {algo} under {sched} at {threads} "
                f"threads lacks barrier_wait_ns/seconds timing "
                f"(required by --max-barrier-frac {spec})"
            )
            continue
        status = "OK " if frac <= ceiling else "FAIL"
        print(
            f"[{status}] barrier gate: {algo} under {sched} @ {threads} "
            f"threads: caller idle {frac * 100:.1f}% of wall clock "
            f"(ceiling {ceiling * 100:.1f}%)",
            file=out,
        )
        if frac > ceiling:
            failures.append(
                f"{algo} under {sched} @ {threads} threads spent "
                f"{frac * 100:.1f}% of wall clock parked at the join point "
                f"(ceiling {ceiling * 100:.1f}%)"
            )

    cur_single = index_single_activation(current)
    if not args.scaling_only:
        # Same disappeared-cell protection the speedups array gets: a
        # single_activation row recorded in the committed baseline must
        # still be emitted by the current run, or rows could vanish ungated
        # (only the --min-speedup specs name cells explicitly).
        for key in sorted(index_single_activation(baseline)):
            if key not in cur_single:
                failures.append(
                    f"single_activation cell {key} missing from current run"
                )
    for (algo, sched), cell in sorted(cur_single.items()):
        speedup = cell["speedup"]
        print(
            f"[info] single-activation: {algo:<14} {sched:<16} "
            f"field {cell['field_rate'] if cell['field_rate'] is not None else 0:.3g} "
            f"vs rescan {cell['rescan_rate'] if cell['rescan_rate'] is not None else 0:.3g} act/s "
            f"({speedup if speedup is not None else 0:.2f}x)",
            file=out,
        )

    for spec in args.min_speedup:
        parsed = parse_min_speedup(spec)
        if parsed is None:
            print(f"bad --min-speedup spec '{spec}'", file=err)
            return 2
        algo, sched, factor = parsed
        cell = cur_single.get((algo, sched))
        got = cell["speedup"] if cell else None
        if got is None:
            failures.append(
                f"no single_activation entry for {algo} under {sched} "
                f"(required by --min-speedup {spec})"
            )
            continue
        status = "OK " if got >= factor else "FAIL"
        print(
            f"[{status}] signal-field gate: {algo} under {sched}: "
            f"{got:.2f}x over rescan (floor {factor:.2f}x)",
            file=out,
        )
        if got < factor:
            failures.append(
                f"{algo} under {sched}: signal field reached only {got:.2f}x "
                f"over the rescan path (floor {factor:.2f}x)"
            )

    cur_churn = index_churn(current)
    if not args.scaling_only:
        # Disappeared-cell protection, like single_activation: churn rows in
        # the committed baseline must still be emitted by the current run.
        for key in sorted(index_churn(baseline)):
            if key not in cur_churn:
                failures.append(f"churn cell {key} missing from current run")
    for (algo, sched), cell in sorted(cur_churn.items()):
        ratio = cell["ratio"]
        print(
            f"[info] churn: {algo:<14} {sched:<16} "
            f"patch {cell['patch_rate'] if cell['patch_rate'] is not None else 0:.3g} "
            f"vs rebuild {cell['rebuild_rate'] if cell['rebuild_rate'] is not None else 0:.3g} ev/s "
            f"({ratio if ratio is not None else 0:.1f}x)",
            file=out,
        )

    for spec in args.min_churn:
        parsed = parse_min_speedup(spec)
        if parsed is None:
            print(f"bad --min-churn spec '{spec}'", file=err)
            return 2
        algo, sched, factor = parsed
        cell = cur_churn.get((algo, sched))
        got = cell["ratio"] if cell else None
        if got is None:
            failures.append(
                f"no churn entry for {algo} under {sched} "
                f"(required by --min-churn {spec})"
            )
            continue
        status = "OK " if got >= factor else "FAIL"
        print(
            f"[{status}] churn gate: {algo} under {sched}: "
            f"{got:.1f}x patch-over-rebuild (floor {factor:.1f}x)",
            file=out,
        )
        if got < factor:
            failures.append(
                f"{algo} under {sched}: topology patching reached only "
                f"{got:.1f}x over the rebuild path (floor {factor:.1f}x)"
            )

    cur_snapshot = index_snapshot(current)
    if not args.scaling_only:
        # Disappeared-cell protection, like churn: snapshot rows in the
        # committed baseline must still be emitted by the current run.
        for key in sorted(index_snapshot(baseline)):
            if key not in cur_snapshot:
                failures.append(f"snapshot cell {key} missing from current run")
    for (algo, sched), cell in sorted(cur_snapshot.items()):
        ratio = cell["ratio"]
        print(
            f"[info] snapshot: {algo:<14} {sched:<16} "
            f"save {cell['save_rate'] if cell['save_rate'] is not None else 0:.3g} "
            f"restore {cell['restore_rate'] if cell['restore_rate'] is not None else 0:.3g} MB/s "
            f"({ratio if ratio is not None else 0:.1f}x vs rerun)",
            file=out,
        )

    for spec in args.min_restore:
        parsed = parse_min_speedup(spec)
        if parsed is None:
            print(f"bad --min-restore spec '{spec}'", file=err)
            return 2
        algo, sched, factor = parsed
        cell = cur_snapshot.get((algo, sched))
        got = cell["ratio"] if cell else None
        if got is None:
            failures.append(
                f"no snapshot entry for {algo} under {sched} "
                f"(required by --min-restore {spec})"
            )
            continue
        status = "OK " if got >= factor else "FAIL"
        print(
            f"[{status}] restore gate: {algo} under {sched}: "
            f"{got:.1f}x restore-over-rerun (floor {factor:.1f}x)",
            file=out,
        )
        if got < factor:
            failures.append(
                f"{algo} under {sched}: checkpoint restore reached only "
                f"{got:.1f}x over re-running the trajectory (floor {factor:.1f}x)"
            )

    cur_locality = index_locality(current)
    if not args.scaling_only:
        # Disappeared-cell protection, like churn/snapshot: locality rows in
        # the committed baseline must still be emitted by the current run.
        for key in sorted(index_locality(baseline)):
            if key not in cur_locality:
                failures.append(f"locality cell {key} missing from current run")
    for (algo, sched), cell in sorted(cur_locality.items()):
        ratio = cell["ratio"]
        print(
            f"[info] locality: {algo:<14} {sched:<16} "
            f"reorder-off {cell['off_rate'] if cell['off_rate'] is not None else 0:.3g} "
            f"vs on {cell['on_rate'] if cell['on_rate'] is not None else 0:.3g} act/s "
            f"({ratio if ratio is not None else 0:.2f}x, gather "
            f"{cell['ns_off'] if cell['ns_off'] is not None else 0:.2f} -> "
            f"{cell['ns_on'] if cell['ns_on'] is not None else 0:.2f} ns/scan)",
            file=out,
        )

    for spec in args.min_locality:
        parsed = parse_min_speedup(spec)
        if parsed is None:
            print(f"bad --min-locality spec '{spec}'", file=err)
            return 2
        algo, sched, factor = parsed
        cell = cur_locality.get((algo, sched))
        got = cell["ratio"] if cell else None
        if got is None:
            failures.append(
                f"no locality entry for {algo} under {sched} "
                f"(required by --min-locality {spec})"
            )
            continue
        status = "OK " if got >= factor else "FAIL"
        print(
            f"[{status}] locality gate: {algo} under {sched}: "
            f"{got:.2f}x reorder-on-over-off (floor {factor:.2f}x)",
            file=out,
        )
        if got < factor:
            failures.append(
                f"{algo} under {sched}: BFS reorder reached only {got:.2f}x "
                f"over the scrambled layout (floor {factor:.2f}x)"
            )

    cur_memory = index_memory(current)
    if not args.scaling_only:
        # Disappeared-row protection, like churn/snapshot: a memory row in
        # the committed baseline must still be emitted by the current run.
        for key in sorted(index_memory(baseline)):
            if key not in cur_memory:
                failures.append(
                    f"memory row for {key} nodes missing from current run"
                )
    for nodes, cell in sorted(cur_memory.items()):
        print(
            f"[info] memory: {nodes:.0f} nodes, "
            f"{cell['bytes_per_node'] if cell['bytes_per_node'] is not None else 0:.1f} B/node, "
            f"{cell['bytes_per_edge'] if cell['bytes_per_edge'] is not None else 0:.1f} B/edge, "
            f"build {cell['build_seconds'] if cell['build_seconds'] is not None else 0:.3g} s, "
            f"stream-over-edgelist "
            f"{cell['build_speedup'] if cell['build_speedup'] is not None else 0:.1f}x",
            file=out,
        )

    if args.max_bytes_per_node is not None:
        if args.max_bytes_per_node <= 0:
            print(
                f"bad --max-bytes-per-node value '{args.max_bytes_per_node}'",
                file=err,
            )
            return 2
        if not cur_memory:
            failures.append(
                "no memory table in current run "
                "(required by --max-bytes-per-node)"
            )
        for nodes, cell in sorted(cur_memory.items()):
            got = cell["bytes_per_node"]
            if got is None or got <= 0:
                failures.append(
                    f"memory row for {nodes:.0f} nodes lacks a positive "
                    f"bytes_per_node (required by --max-bytes-per-node)"
                )
                continue
            status = "OK " if got <= args.max_bytes_per_node else "FAIL"
            print(
                f"[{status}] footprint gate: {nodes:.0f} nodes at "
                f"{got:.1f} B/node (ceiling {args.max_bytes_per_node:.1f})",
                file=out,
            )
            if got > args.max_bytes_per_node:
                failures.append(
                    f"memory footprint at {nodes:.0f} nodes reached "
                    f"{got:.1f} B/node "
                    f"(ceiling {args.max_bytes_per_node:.1f})"
                )

    if args.min_build_speedup is not None:
        if args.min_build_speedup <= 0:
            print(
                f"bad --min-build-speedup value '{args.min_build_speedup}'",
                file=err,
            )
            return 2
        measured = [
            (nodes, cell["build_speedup"])
            for nodes, cell in sorted(cur_memory.items())
            if cell["ref_nodes"] and cell["ref_nodes"] > 0
            and cell["build_speedup"] is not None
        ]
        if not measured:
            failures.append(
                "no memory row carries a build_speedup reference measurement "
                "(required by --min-build-speedup)"
            )
        for nodes, got in measured:
            status = "OK " if got >= args.min_build_speedup else "FAIL"
            print(
                f"[{status}] build-speedup gate: {nodes:.0f}-node row: "
                f"streaming {got:.1f}x over the edge-list path "
                f"(floor {args.min_build_speedup:.1f}x)",
                file=out,
            )
            if got < args.min_build_speedup:
                failures.append(
                    f"streaming graph build reached only {got:.1f}x over "
                    f"the edge-list path "
                    f"(floor {args.min_build_speedup:.1f}x)"
                )

    cur_service = index_service(current)
    if not args.scaling_only and index_service(baseline) and not cur_service:
        # Disappeared-table protection: a service table in the committed
        # baseline must still be emitted by the current run.
        failures.append("service table present in baseline but missing "
                        "from current run")
    for row in cur_service:
        print(
            f"[info] service: {row['sessions'] if row['sessions'] is not None else 0:.0f} sessions "
            f"x {row['workers'] if row['workers'] is not None else 0:.0f} workers, "
            f"{row['commands'] if row['commands'] is not None else 0:.0f} commands, "
            f"{row['sessions_per_sec'] if row['sessions_per_sec'] is not None else 0:.3g} sessions/s, "
            f"{row['commands_per_sec'] if row['commands_per_sec'] is not None else 0:.3g} commands/s, "
            f"p50 {row['p50'] if row['p50'] is not None else 0:.1f} us, "
            f"p99 {row['p99'] if row['p99'] is not None else 0:.1f} us",
            file=out,
        )

    if args.min_sessions is not None:
        if args.min_sessions <= 0:
            print(f"bad --min-sessions value '{args.min_sessions}'", file=err)
            return 2
        # A qualifying row must have actually completed its traffic: a
        # sessions count alone is claimable by a pool that deadlocked before
        # any command finished (zero throughput, zero latency percentiles).
        qualifying = [
            row for row in cur_service
            if (row["sessions"] is not None
                and row["sessions"] >= args.min_sessions
                and row["sessions_per_sec"] is not None
                and row["sessions_per_sec"] > 0
                and row["p99"] is not None and row["p99"] > 0)
        ]
        if qualifying:
            best = max(qualifying, key=lambda r: r["sessions"])
            print(
                f"[OK ] service gate: {best['sessions']:.0f} sessions "
                f"(floor {args.min_sessions}) at "
                f"{best['sessions_per_sec']:.3g} sessions/s, "
                f"p99 {best['p99']:.1f} us",
                file=out,
            )
        else:
            failures.append(
                f"no service row drove >= {args.min_sessions} completed "
                f"sessions with positive throughput and p99 latency "
                f"(required by --min-sessions)"
            )

    for w in warnings:
        print(f"[warn] {w}", file=out)

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:", file=err)
        for f in failures:
            print(f"  - {f}", file=err)
        return 1
    print(f"\nbench gate passed (floor {floor:.2f} of baseline)", file=out)
    return 0


def self_check():
    """Exercises the gate against embedded fixtures; exits non-zero on any
    deviation from the expected verdicts."""
    import io

    def gate(baseline, current, **kw):
        args = argparse.Namespace(
            max_regression=kw.get("max_regression", 0.30),
            absolute=kw.get("absolute", False),
            min_scaling=kw.get("min_scaling", []),
            max_barrier_frac=kw.get("max_barrier_frac", []),
            min_speedup=kw.get("min_speedup", []),
            min_churn=kw.get("min_churn", []),
            min_restore=kw.get("min_restore", []),
            min_locality=kw.get("min_locality", []),
            min_sessions=kw.get("min_sessions", None),
            max_bytes_per_node=kw.get("max_bytes_per_node", None),
            min_build_speedup=kw.get("min_build_speedup", None),
            scaling_only=kw.get("scaling_only", False),
        )
        return run_gate(baseline, current, args, out=io.StringIO(),
                        err=io.StringIO())

    def speedup_doc(factor):
        return {
            "speedups": [
                {
                    "algorithm": "alg-au",
                    "scheduler": "synchronous",
                    "fast_over_legacy": factor,
                }
            ]
        }

    sweep_doc = {
        "speedups": [],
        "thread_sweep": [
            # Synchronous rows (sharded double-buffered kernel). The
            # sharded engine reports wall clock + caller barrier wait:
            # 20 ms of a 1 s row = a 2% idle fraction.
            {"algorithm": "alg-au", "scheduler": "synchronous", "threads": 1,
             "activations_per_sec": 1e6, "scaling_vs_serial": 1.0,
             "seconds": 1.0, "barrier_wait_ns": 0, "apply_phase_ns": 0},
            {"algorithm": "alg-au", "scheduler": "synchronous", "threads": 2,
             "activations_per_sec": 1.8e6, "scaling_vs_serial": 1.8,
             "seconds": 1.0, "barrier_wait_ns": 2.0e7,
             "apply_phase_ns": 1.0e8},
            # Async rows (sparse-activation kernel) — same algorithm, other
            # scheduler: keys must not collide with the synchronous rows.
            {"algorithm": "alg-au", "scheduler": "laggard", "threads": 2,
             "activations_per_sec": 1.2e6, "scaling_vs_serial": 1.2,
             "seconds": 1.0, "barrier_wait_ns": 6.0e8,
             "apply_phase_ns": 2.0e8},
            # Legacy row without a scheduler field: defaults to synchronous.
            # Predates the barrier columns — must FAIL a barrier gate rather
            # than pass by omission.
            {"algorithm": "reset-unison", "threads": 2,
             "activations_per_sec": 1e6, "scaling_vs_serial": 1.5},
        ],
    }

    single_act_doc = {
        "speedups": [],
        "single_activation": [
            {"algorithm": "alg-au", "scheduler": "uniform-single",
             "field_activations_per_sec": 1.2e7,
             "rescan_activations_per_sec": 4e6,
             "field_over_rescan": 3.0},
            # A cell where the field legitimately loses (every activation
            # transitions): present but never gated.
            {"algorithm": "alg-au", "scheduler": "rotating-single",
             "field_activations_per_sec": 5e6,
             "rescan_activations_per_sec": 6e6,
             "field_over_rescan": 0.83},
        ],
    }

    churn_doc = {
        "speedups": [],
        "churn": [
            {"algorithm": "alg-au", "scheduler": "uniform-single",
             "patch_events_per_sec": 5e5,
             "rebuild_events_per_sec": 4e2,
             "patch_over_rebuild": 1250.0},
        ],
    }

    snapshot_doc = {
        "speedups": [],
        "snapshot": [
            {"algorithm": "alg-au", "scheduler": "uniform-single",
             "snapshot_bytes": 500000,
             "save_mb_per_sec": 900.0,
             "restore_mb_per_sec": 300.0,
             "restore_over_rerun": 40.0},
        ],
    }

    service_doc = {
        "speedups": [],
        "service": [
            {"sessions": 1000, "workers": 8, "commands": 7000,
             "seconds": 0.5, "sessions_per_sec": 2000.0,
             "commands_per_sec": 14000.0,
             "p50_latency_us": 120.0, "p99_latency_us": 900.0},
        ],
    }

    locality_doc = {
        "speedups": [],
        "locality": [
            {"algorithm": "alg-au", "scheduler": "synchronous",
             "nodes": 1000000, "edges": 1750000,
             "neighbor_distance_off": 333000.0,
             "neighbor_distance_on": 1.8,
             "reorder_seconds": 0.4,
             "off_activations_per_sec": 2.9e7,
             "on_activations_per_sec": 4.0e7,
             "reorder_on_over_off": 1.38,
             "gather_ns_per_scan_off": 7.7, "gather_ns_per_scan_on": 5.6},
        ],
    }

    memory_doc = {
        "speedups": [],
        "memory": [
            {"nodes": 1000000, "edges": 5000000,
             "build_seconds": 0.6,
             "ref_nodes": 100000,
             "ref_stream_seconds": 0.05,
             "ref_edgelist_seconds": 14.0,
             "build_speedup": 280.0,
             "graph_bytes": 56000000, "engine_bytes": 15000000,
             "total_bytes": 71000000,
             "bytes_per_node": 71.0, "bytes_per_edge": 11.2},
        ],
    }

    unreferenced_memory_doc = {
        "speedups": [],
        "memory": [
            # Footprint measured but the speedup reference skipped
            # (--mem-ref-nodes=0): gateable on bytes, not on build_speedup.
            {"nodes": 1000000, "edges": 5000000,
             "build_seconds": 0.6,
             "ref_nodes": 0, "build_speedup": 0.0,
             "graph_bytes": 56000000, "engine_bytes": 15000000,
             "total_bytes": 71000000,
             "bytes_per_node": 71.0, "bytes_per_edge": 11.2},
        ],
    }

    stalled_service_doc = {
        "speedups": [],
        "service": [
            # Claims the session count but completed nothing: zero
            # throughput and zero latency percentiles must not qualify.
            {"sessions": 1000, "workers": 8, "commands": 0,
             "seconds": 0.0, "sessions_per_sec": 0.0,
             "commands_per_sec": 0.0,
             "p50_latency_us": 0.0, "p99_latency_us": 0.0},
        ],
    }

    checks = [
        # (description, expected exit code, thunk)
        ("clean pass", 0,
         lambda: gate(speedup_doc(5.0), speedup_doc(5.0))),
        ("regression fails", 1,
         lambda: gate(speedup_doc(5.0), speedup_doc(2.0))),
        ("missing current cell fails", 1,
         lambda: gate(speedup_doc(5.0), {"speedups": []})),
        ("zero baseline warns but does not crash or fail", 0,
         lambda: gate(speedup_doc(0.0), speedup_doc(5.0))),
        ("missing/null baseline value warns but does not crash", 0,
         lambda: gate({"speedups": [{"algorithm": "alg-au",
                                     "scheduler": "synchronous"}]},
                      speedup_doc(5.0))),
        ("zero absolute baseline warns but does not crash", 0,
         lambda: gate(
             {"speedups": [],
              "results": [{"algorithm": "a", "scheduler": "s", "mode": "fast",
                           "kernel": "mask", "activations_per_sec": 0.0}]},
             {"speedups": [],
              "results": [{"algorithm": "a", "scheduler": "s", "mode": "fast",
                           "kernel": "mask", "activations_per_sec": 1.0}]},
             absolute=True)),
        ("missing absolute current cell warns but does not crash", 0,
         lambda: gate(
             {"speedups": [],
              "results": [{"algorithm": "a", "scheduler": "s", "mode": "fast",
                           "kernel": "mask", "activations_per_sec": 1.0}]},
             {"speedups": [], "results": []},
             absolute=True)),
        ("sync scaling gate passes (3-field spec defaults scheduler)", 0,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["alg-au:2:1.5"])),
        ("async scaling gate passes (4-field spec)", 0,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["alg-au:laggard:2:1.1"])),
        ("async scaling below floor fails", 1,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["alg-au:laggard:2:1.5"])),
        ("async spec does not match the synchronous row", 1,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["alg-au:wave:2:1.0"])),
        ("schedulerless legacy sweep row gates as synchronous", 0,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["reset-unison:2:1.4"])),
        ("malformed spec is a usage error", 2,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      min_scaling=["alg-au:two:threads:1.0:x"])),
        ("barrier fraction under the ceiling passes", 0,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      max_barrier_frac=["alg-au:2:0.05"])),
        ("barrier fraction over the ceiling fails", 1,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      max_barrier_frac=["alg-au:laggard:2:0.35"])),
        ("barrier gate on a missing sweep row fails", 1,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      max_barrier_frac=["alg-mis:2:0.5"])),
        ("barrier gate on a row without timing fields fails", 1,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      max_barrier_frac=["reset-unison:2:0.5"])),
        ("malformed max-barrier-frac spec is a usage error", 2,
         lambda: gate(sweep_doc, sweep_doc, scaling_only=True,
                      max_barrier_frac=["alg-au:lots:0.5"])),
        ("signal-field speedup gate passes", 0,
         lambda: gate(single_act_doc, single_act_doc, scaling_only=True,
                      min_speedup=["alg-au:uniform-single:2.0"])),
        ("signal-field speedup below floor fails", 1,
         lambda: gate(single_act_doc, single_act_doc, scaling_only=True,
                      min_speedup=["alg-au:uniform-single:4.0"])),
        ("ungated losing cell does not fail on its own", 0,
         lambda: gate(single_act_doc, single_act_doc, scaling_only=True)),
        ("missing single-activation row fails its gate", 1,
         lambda: gate(single_act_doc, single_act_doc, scaling_only=True,
                      min_speedup=["alg-le:uniform-single:2.0"])),
        ("malformed min-speedup spec is a usage error", 2,
         lambda: gate(single_act_doc, single_act_doc, scaling_only=True,
                      min_speedup=["alg-au:uniform-single"])),
        ("single-activation rows matching baseline pass", 0,
         lambda: gate(single_act_doc, single_act_doc)),
        ("single-activation cell missing vs baseline fails", 1,
         lambda: gate(single_act_doc,
                      {"speedups": [], "single_activation": []})),
        ("scaling-only skips the single-activation baseline diff", 0,
         lambda: gate(single_act_doc,
                      {"speedups": [], "single_activation": []},
                      scaling_only=True)),
        ("churn gate passes", 0,
         lambda: gate(churn_doc, churn_doc, scaling_only=True,
                      min_churn=["alg-au:uniform-single:5.0"])),
        ("churn ratio below floor fails", 1,
         lambda: gate(churn_doc, churn_doc, scaling_only=True,
                      min_churn=["alg-au:uniform-single:99999"])),
        ("missing churn row fails its gate", 1,
         lambda: gate(churn_doc, churn_doc, scaling_only=True,
                      min_churn=["alg-mis:uniform-single:5.0"])),
        ("malformed min-churn spec is a usage error", 2,
         lambda: gate(churn_doc, churn_doc, scaling_only=True,
                      min_churn=["alg-au:5.0"])),
        ("churn rows matching baseline pass", 0,
         lambda: gate(churn_doc, churn_doc)),
        ("churn cell missing vs baseline fails", 1,
         lambda: gate(churn_doc, {"speedups": [], "churn": []})),
        ("scaling-only skips the churn baseline diff", 0,
         lambda: gate(churn_doc, {"speedups": [], "churn": []},
                      scaling_only=True)),
        ("restore gate passes", 0,
         lambda: gate(snapshot_doc, snapshot_doc, scaling_only=True,
                      min_restore=["alg-au:uniform-single:5.0"])),
        ("restore ratio below floor fails", 1,
         lambda: gate(snapshot_doc, snapshot_doc, scaling_only=True,
                      min_restore=["alg-au:uniform-single:99999"])),
        ("missing snapshot row fails its gate", 1,
         lambda: gate(snapshot_doc, snapshot_doc, scaling_only=True,
                      min_restore=["alg-mis:uniform-single:5.0"])),
        ("malformed min-restore spec is a usage error", 2,
         lambda: gate(snapshot_doc, snapshot_doc, scaling_only=True,
                      min_restore=["alg-au:5.0"])),
        ("snapshot rows matching baseline pass", 0,
         lambda: gate(snapshot_doc, snapshot_doc)),
        ("snapshot cell missing vs baseline fails", 1,
         lambda: gate(snapshot_doc, {"speedups": [], "snapshot": []})),
        ("scaling-only skips the snapshot baseline diff", 0,
         lambda: gate(snapshot_doc, {"speedups": [], "snapshot": []},
                      scaling_only=True)),
        ("locality gate passes", 0,
         lambda: gate(locality_doc, locality_doc, scaling_only=True,
                      min_locality=["alg-au:synchronous:1.2"])),
        ("locality ratio below floor fails", 1,
         lambda: gate(locality_doc, locality_doc, scaling_only=True,
                      min_locality=["alg-au:synchronous:99999"])),
        ("missing locality row fails its gate", 1,
         lambda: gate(locality_doc, locality_doc, scaling_only=True,
                      min_locality=["alg-mis:synchronous:1.2"])),
        ("malformed min-locality spec is a usage error", 2,
         lambda: gate(locality_doc, locality_doc, scaling_only=True,
                      min_locality=["alg-au:1.2"])),
        ("locality rows matching baseline pass", 0,
         lambda: gate(locality_doc, locality_doc)),
        ("locality cell missing vs baseline fails", 1,
         lambda: gate(locality_doc, {"speedups": [], "locality": []})),
        ("scaling-only skips the locality baseline diff", 0,
         lambda: gate(locality_doc, {"speedups": [], "locality": []},
                      scaling_only=True)),
        ("service gate passes at the floor", 0,
         lambda: gate(service_doc, service_doc, scaling_only=True,
                      min_sessions=1000)),
        ("service gate below the floor fails", 1,
         lambda: gate(service_doc, service_doc, scaling_only=True,
                      min_sessions=2000)),
        ("service gate with no service table fails", 1,
         lambda: gate(service_doc, {"speedups": []}, scaling_only=True,
                      min_sessions=1000)),
        ("stalled service row (zero throughput/latency) fails", 1,
         lambda: gate(stalled_service_doc, stalled_service_doc,
                      scaling_only=True, min_sessions=1000)),
        ("non-positive --min-sessions is a usage error", 2,
         lambda: gate(service_doc, service_doc, scaling_only=True,
                      min_sessions=0)),
        ("footprint gate passes at the ceiling", 0,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      max_bytes_per_node=71.0)),
        ("footprint over the ceiling fails", 1,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      max_bytes_per_node=64.0)),
        ("footprint gate with no memory table fails", 1,
         lambda: gate(memory_doc, {"speedups": []}, scaling_only=True,
                      max_bytes_per_node=96.0)),
        ("non-positive --max-bytes-per-node is a usage error", 2,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      max_bytes_per_node=0.0)),
        ("build-speedup gate passes", 0,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      min_build_speedup=10.0)),
        ("build-speedup below floor fails", 1,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      min_build_speedup=99999.0)),
        ("build-speedup gate without a reference row fails", 1,
         lambda: gate(unreferenced_memory_doc, unreferenced_memory_doc,
                      scaling_only=True, min_build_speedup=10.0)),
        ("unreferenced memory row still gates on bytes", 0,
         lambda: gate(unreferenced_memory_doc, unreferenced_memory_doc,
                      scaling_only=True, max_bytes_per_node=96.0)),
        ("non-positive --min-build-speedup is a usage error", 2,
         lambda: gate(memory_doc, memory_doc, scaling_only=True,
                      min_build_speedup=-1.0)),
        ("memory rows matching baseline pass", 0,
         lambda: gate(memory_doc, memory_doc)),
        ("memory row missing vs baseline fails", 1,
         lambda: gate(memory_doc, {"speedups": [], "memory": []})),
        ("scaling-only skips the memory baseline diff", 0,
         lambda: gate(memory_doc, {"speedups": [], "memory": []},
                      scaling_only=True)),
        ("service table matching baseline passes ungated", 0,
         lambda: gate(service_doc, service_doc)),
        ("service table missing vs baseline fails", 1,
         lambda: gate(service_doc, {"speedups": []})),
        ("scaling-only skips the service baseline diff", 0,
         lambda: gate(service_doc, {"speedups": []}, scaling_only=True)),
    ]

    failed = 0
    for description, expected, thunk in checks:
        try:
            got = thunk()
        except Exception as exc:  # a crash is always a self-check failure
            print(f"[FAIL] {description}: raised {exc!r}")
            failed += 1
            continue
        status = "ok" if got == expected else "FAIL"
        if got != expected:
            failed += 1
        print(f"[{status:>4}] {description} (exit {got}, expected {expected})")
    if failed:
        print(f"\nself-check: {failed}/{len(checks)} checks failed",
              file=sys.stderr)
        return 1
    print(f"\nself-check: all {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum tolerated fractional drop (default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate raw activations/sec per result cell "
        "(only meaningful when both files come from the same machine)",
    )
    parser.add_argument(
        "--min-scaling",
        action="append",
        default=[],
        metavar="ALGO[:SCHED]:THREADS:FACTOR",
        help="require the current run's thread_sweep entry for ALGO under "
        "SCHED (default: synchronous) at THREADS to reach FACTOR x its "
        "serial rate (repeatable)",
    )
    parser.add_argument(
        "--max-barrier-frac",
        action="append",
        default=[],
        metavar="ALGO[:SCHED]:THREADS:FRAC",
        help="require the current run's thread_sweep entry for ALGO under "
        "SCHED (default: synchronous) at THREADS to have spent at most "
        "FRAC of its wall clock with the calling thread parked at the "
        "pool's join (barrier_wait_ns / (seconds * 1e9); repeatable). Rows "
        "missing the timing fields fail the gate.",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="ALGO:SCHED:FACTOR",
        help="require the current run's single_activation entry for ALGO "
        "under SCHED to reach FACTOR x the rescan path's throughput "
        "(repeatable)",
    )
    parser.add_argument(
        "--min-churn",
        action="append",
        default=[],
        metavar="ALGO:SCHED:FACTOR",
        help="require the current run's churn entry for ALGO under SCHED to "
        "reach FACTOR x the rebuild path's per-event rate (repeatable)",
    )
    parser.add_argument(
        "--min-restore",
        action="append",
        default=[],
        metavar="ALGO:SCHED:FACTOR",
        help="require the current run's snapshot entry for ALGO under SCHED "
        "to reach FACTOR x restore-over-rerun (checkpoint resume vs "
        "recomputing the trajectory; repeatable)",
    )
    parser.add_argument(
        "--min-locality",
        action="append",
        default=[],
        metavar="ALGO:SCHED:FACTOR",
        help="require the current run's locality entry for ALGO under SCHED "
        "to reach FACTOR x reorder-on-over-off (BFS-reordered layout vs "
        "the scrambled adversarial layout; repeatable)",
    )
    parser.add_argument(
        "--min-sessions",
        type=int,
        default=None,
        metavar="N",
        help="require the current run's service table to contain a row that "
        "drove at least N concurrent sessions to completion (positive "
        "sessions/sec and p99 command latency)",
    )
    parser.add_argument(
        "--max-bytes-per-node",
        type=float,
        default=None,
        metavar="B",
        help="require every memory-table row in the current run to report at "
        "most B bytes of graph + engine heap per node (recursive "
        "dynamic_memory_usage accounting); fails when the table is absent",
    )
    parser.add_argument(
        "--min-build-speedup",
        type=float,
        default=None,
        metavar="F",
        help="require a memory-table row whose in-run streaming-vs-edge-list "
        "graph construction ratio (build_speedup, measured at ref_nodes) "
        "reaches F",
    )
    parser.add_argument(
        "--scaling-only",
        action="store_true",
        help="skip the baseline speedup comparison and gate only "
        "--min-scaling (use when no meaningful baseline exists, e.g. the "
        "CI scaling job gating a run against itself)",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run the embedded gate-behavior checks against fixtures "
        "(no input files needed) and exit",
    )
    args = parser.parse_args()

    if args.self_check:
        return self_check()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current JSON paths are required "
                     "(or pass --self-check)")
    return run_gate(load(args.baseline), load(args.current), args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bench gate: checks bench_engine_perf JSON runs against bench/gates.txt.

  scripts/bench_gate.py RULES LABEL=RUN.json [LABEL=RUN.json ...]
  scripts/bench_gate.py --self-check [RULES BASELINE.json]

LABEL names a run: `main` (the change's full bench run), `change` and
`parent` (main-table runs of the change and of its parent commit, built and
run interleaved in the same job), `scaling` (the thread-sweep run) or
`baseline` (the committed BENCH_engine.json). A label may be given several
files. A rule then reads each row's best reading among them (the largest for
>= and >, the smallest for <=): noise on a shared host only ever slows a run
down.

Each rule is one line; blank lines and lines starting with # are ignored:

  RUN TABLE [KEY=VALUE ...] FIELD OP THRESHOLD | REASON
  RUN TABLE [KEY=VALUE ...] present REF | REASON

TABLE is a top-level array of the run's JSON. KEY=VALUE keeps the rows whose
KEY reads VALUE; VALUE may list alternatives as A,B. OP is >=, > or <=.
THRESHOLD is a number, or FACTOR*REF, which compares each row with the same
row of run REF. A row is named by its KEYS fields; every other field is a
reading.

A rule fails when it matches no row, when a matched row's FIELD is missing or
not a number, or when a reading misses its threshold. FACTOR*REF also fails
for each REF row missing from RUN; a REF reading that is zero or missing is
warned about and skipped. `present REF` fails for each selected REF row
missing from RUN. Rules naming a run that was not given are skipped, so one
rules file serves the separate gate steps of a CI job.

--self-check runs embedded fixtures, then checks that every rule of RULES
names a table, rows and a field that BASELINE has, and that every table of
BASELINE has a `present` rule. Exit status: 0 pass, 1 a rule failed, 2 a
malformed rules file or command line.
"""

import io
import json
import operator
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LABELS = ("main", "change", "parent", "scaling", "baseline")
KEYS = ("algorithm", "scheduler", "mode", "threads", "nodes", "traffic")
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class RuleError(ValueError):
    pass


def parse_rule(line):
    """One rules-file line as a dict, or None for a blank or comment line."""
    body, bar, reason = line.strip().partition("|")
    words = body.split()
    if not words or words[0].startswith("#"):
        return None
    if not bar or not reason.strip() or len(words) < 4:
        raise RuleError("expected RUN TABLE [KEY=VALUE ...] FIELD OP "
                        "THRESHOLD | REASON")
    rule = {"run": words[0], "table": words[1], "reason": reason.strip()}
    if words[-2] == "present":
        rule.update(field=None, op="present", factor=None, ref=words[-1])
        selectors = words[2:-2]
    else:
        if len(words) < 5 or words[-2] not in OPS:
            raise RuleError(f"expected FIELD OP THRESHOLD, OP one of "
                            f"{' '.join(OPS)}")
        factor, star, ref = words[-1].partition("*")
        try:
            factor = float(factor)
        except ValueError:
            raise RuleError(f"bad threshold '{words[-1]}'") from None
        rule.update(field=words[-3], op=words[-2], factor=factor,
                    ref=ref if star else None)
        selectors = words[2:-3]
    for label in (rule["run"], rule["ref"]):
        if label is not None and label not in LABELS:
            raise RuleError(f"unknown run '{label}' (one of {' '.join(LABELS)})")
    rule["select"] = {}
    for word in selectors:
        key, eq, value = word.partition("=")
        if not (key and eq and value):
            raise RuleError(f"expected KEY=VALUE, got '{word}'")
        rule["select"][key] = value.split(",")
    return rule


def parse_rules(text):
    rules = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            rule = parse_rule(line)
        except RuleError as exc:
            raise RuleError(f"rules line {number}: {exc}") from None
        if rule is not None:
            rule["line"] = number
            rules.append(rule)
    return rules


def as_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def row_name(row):
    return " ".join(f"{k}={row[k]}" for k in KEYS if k in row) or "(row)"


def select(docs, rule):
    """The rule's rows of its table across `docs`, grouped by row name."""
    groups = {}
    for doc in docs:
        rows = doc.get(rule["table"]) if isinstance(doc, dict) else None
        for row in rows if isinstance(rows, list) else []:
            if isinstance(row, dict) and all(
                    str(row.get(k)) in values
                    for k, values in rule["select"].items()):
                groups.setdefault(row_name(row), []).append(row)
    return groups


def best(rows, rule):
    """The best reading of the rule's field across `rows`, or None when a
    row lacks it or holds something other than a number."""
    values = [as_number(row.get(rule["field"])) for row in rows]
    if None in values:
        return None
    return (max if rule["op"] in (">=", ">") else min)(values)


def check(rule, runs, say):
    """Evaluates one rule; `say(status, text)` reports. True if it held."""
    where = f"line {rule['line']}: {rule['run']} {rule['table']}"
    here = select(runs[rule["run"]], rule)
    ref = select(runs[rule["ref"]], rule) if rule["ref"] else None
    field, op, factor = rule["field"], rule["op"], rule["factor"]
    failures = []

    def fail(text):
        failures.append(text)
        say("FAIL", f"{where} {text}")

    if not (here if ref is None else ref):
        selector = " ".join(f"{k}={','.join(v)}"
                            for k, v in rule["select"].items())
        fail(f"{selector} matches no {rule['ref'] or rule['run']} row")
    for name, rows in (here if ref is None else ref).items():
        if ref is not None:
            if name not in here:
                fail(f"{name}: in {rule['ref']} but missing")
                continue
            if op == "present":
                continue
            base = best(rows, rule)
            if base is None or base <= 0:
                say("warn", f"{where} {name}: {rule['ref']} {field} is "
                            f"{base!r}, row skipped")
                continue
        value = best(here[name], rule)
        if value is None:
            fail(f"{name}: {field} missing or not a number")
            continue
        bound = factor if ref is None else factor * base
        text = f"{name}: {field} {value:.4g} {op} {bound:.4g}"
        if ref is not None:
            text += f" ({value / base:.2f} of {rule['ref']})"
        if OPS[op](value, bound):
            say("OK", f"{where} {text}")
        else:
            fail(text)
    if op == "present" and not failures:
        say("OK", f"{where}: all {len(ref)} {rule['ref']} rows present")
    return not failures


def run_gate(rules, runs, out=sys.stdout):
    """Evaluates every rule whose runs were given. Returns the exit status."""
    failed, ran, skipped = [], 0, set()

    def say(status, text):
        print(f"[{status:^4}] {text}", file=out)

    for rule in rules:
        missing = {rule["run"], rule["ref"]} - set(runs) - {None}
        if missing:
            skipped |= missing
            continue
        ran += 1
        if not check(rule, runs, say):
            failed.append(rule)
    if skipped:
        print(f"\nskipped the rules of runs not given: "
              f"{' '.join(sorted(skipped))}", file=out)
    if not ran:
        print("no rule names only the runs given", file=out)
        return 2
    if failed:
        print(f"\nBENCH GATE FAILED ({len(failed)} of {ran} rules):", file=out)
        for rule in failed:
            print(f"  - line {rule['line']}: {rule['reason']}", file=out)
        return 1
    print(f"\nbench gate passed ({ran} rules)", file=out)
    return 0


def self_check(rules_path, baseline_path):
    """Embedded fixtures, then the rules file against the committed
    baseline. Returns the exit status."""
    def gate(lines, **runs):
        return run_gate(parse_rules("\n".join(lines)),
                        {k: v if isinstance(v, list) else [v]
                         for k, v in runs.items()}, io.StringIO())

    def malformed(line):
        try:
            parse_rules(line)
        except RuleError:
            return 2
        return 0

    def warns(lines, **runs):
        out = io.StringIO()
        status = run_gate(parse_rules("\n".join(lines)),
                          {k: [v] for k, v in runs.items()}, out)
        return status if "[warn]" in out.getvalue() else "silent"

    def single(ratio):
        return {"single_activation": [{"algorithm": "alg-au",
                                       "scheduler": "uniform-single",
                                       "field_over_rescan": ratio}]}

    def results(rate, mode="fast"):
        return {"results": [{"algorithm": "alg-au", "scheduler": "synchronous",
                             "mode": mode, "threads": 1, "kernel": "mask",
                             "activations_per_sec": rate}]}

    floor = ["main single_activation algorithm=alg-au field_over_rescan "
             ">= 2.0 | fixture"]
    cross = ["change results mode=fast activations_per_sec >= 0.70*parent "
             "| fixture"]
    present = ["main results present baseline | fixture"]
    rules = parse_rules(Path(rules_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())

    def table_rules(table):
        return [r for r in rules if r["table"] == table and r["ref"] is None]

    def table_gate(table, run, doc):
        return run_gate(table_rules(table), {run: [{table: doc}]},
                        io.StringIO())

    service = {"traffic": "mixed", "sessions": 1000, "sessions_per_sec": 2e3,
               "commands_per_sec": 1.4e4, "p99_latency_us": 900.0}
    sweep = [{"algorithm": "alg-au", "scheduler": s, "threads": t,
              "scaling_vs_serial": x, "seconds": 1.0, "barrier_frac": 0.02}
             for s, t, x in (("synchronous", 2, 1.8), ("synchronous", 4, 3.0),
                             ("laggard", 2, 1.2))]
    memory = {"nodes": 1000000, "ref_nodes": 100000, "build_speedup": 280.0,
              "bytes_per_node": 71.0}
    checks = [
        ("pass at the floor", 0, lambda: gate(floor, main=single(2.0))),
        ("fail below the floor", 1, lambda: gate(floor, main=single(1.99))),
        ("a rule that matches no row fails", 1,
         lambda: gate(floor, main={"single_activation": []})),
        ("a non-numeric field fails", 1,
         lambda: gate(floor, main=single("2.5"))),
        ("a malformed rule exits 2", 2,
         lambda: malformed("main churn patch_over_rebuild >> 5 | x")),
        ("a rule without a reason exits 2", 2,
         lambda: malformed("main churn patch_over_rebuild >= 5")),
        ("a rule naming an unknown run exits 2", 2,
         lambda: malformed("mian churn patch_over_rebuild >= 5 | x")),
        ("a baseline row missing from the current run fails", 1,
         lambda: gate(present, main=results(1.0, "legacy"),
                      baseline=results(1.0))),
        ("a baseline row still measured passes", 0,
         lambda: gate(present, main=results(2.0), baseline=results(1.0))),
        ("cross-run rule at 0.70 of the parent passes", 0,
         lambda: gate(cross, change=results(0.70), parent=results(1.0))),
        ("cross-run rule below 0.70 of the parent fails", 1,
         lambda: gate(cross, change=results(0.69), parent=results(1.0))),
        ("the change's best reading is compared", 0,
         lambda: gate(cross, change=[results(0.5), results(0.8)],
                      parent=[results(1.0), results(0.9)])),
        ("against the parent's best reading", 1,
         lambda: gate(cross, change=results(0.75),
                      parent=[results(0.9), results(1.1)])),
        ("a zero parent value warns, does not crash or fail", 0,
         lambda: warns(cross, change=results(5.0), parent=results(0.0))),
        ("a missing parent value warns, does not crash or fail", 0,
         lambda: warns(cross, change=results(5.0), parent=results(None))),
        ("a parent row missing from the change fails", 1,
         lambda: gate(cross, change=results(5.0, "legacy"),
                      parent=results(1.0))),
        ("healthy service row passes the service rules", 0,
         lambda: table_gate("service", "main", [service])),
        ("a stalled service row fails", 1,
         lambda: table_gate("service", "main", [
             dict(service, sessions_per_sec=0.0, p99_latency_us=0.0)])),
        ("healthy sweep rows pass the thread_sweep rules", 0,
         lambda: table_gate("thread_sweep", "scaling", sweep)),
        ("a sweep row without timing fields fails", 1,
         lambda: table_gate("thread_sweep", "scaling", sweep[:1] + [
             {k: v for k, v in sweep[1].items()
              if k not in ("seconds", "barrier_frac")}] + sweep[2:])),
        ("healthy memory row passes the memory rules", 0,
         lambda: table_gate("memory", "main", [memory])),
        ("a memory row without a reference build fails", 1,
         lambda: table_gate("memory", "main", [
             dict(memory, ref_nodes=0, build_speedup=0.0)])),
    ]
    failed = 0
    for description, expected, thunk in checks:
        try:
            got = thunk()
        except Exception as exc:  # a crash is always a self-check failure
            got = f"raised {exc!r}"
        failed += got != expected
        print(f"[{'ok' if got == expected else 'FAIL':>4}] {description} "
              f"(got {got}, expected {expected})")

    problems = []
    for rule in rules:
        rows = [row for group in select([baseline], rule).values()
                for row in group]
        if not any(rule["field"] in (None, *row) for row in rows):
            problems.append(f"rules line {rule['line']}: no {rule['table']} "
                            f"row of {baseline_path} matches" +
                            (f" with field {rule['field']}"
                             if rule["field"] else ""))
    covered = {rule["table"] for rule in rules if rule["op"] == "present"}
    problems += [f"table {table} of {baseline_path} has no present rule"
                 for table, rows in baseline.items()
                 if isinstance(rows, list) and table not in covered]
    for problem in problems:
        print(f"[FAIL] {problem}")
    if failed or problems:
        print(f"\nself-check: {failed} fixtures and {len(problems)} rules "
              f"problems", file=sys.stderr)
        return 1
    print(f"\nself-check: {len(checks)} fixtures and {len(rules)} rules ok")
    return 0


def main(argv):
    try:
        if argv[:1] == ["--self-check"] and len(argv) in (1, 3):
            paths = argv[1:] or [ROOT / "bench" / "gates.txt",
                                 ROOT / "BENCH_engine.json"]
            return self_check(*paths)
        if len(argv) < 2 or argv[0] == "--self-check":
            raise RuleError("usage: bench_gate.py RULES LABEL=RUN.json ... "
                            "| --self-check [RULES BASELINE.json]")
        runs = {}
        for arg in argv[1:]:
            label, eq, path = arg.partition("=")
            if not eq or label not in LABELS:
                raise RuleError(f"expected LABEL=FILE with LABEL one of "
                                f"{' '.join(LABELS)}, got '{arg}'")
            runs.setdefault(label, []).append(json.loads(Path(path).read_text()))
        return run_gate(parse_rules(Path(argv[0]).read_text()), runs)
    except (RuleError, OSError, ValueError) as exc:
        print(f"bench_gate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

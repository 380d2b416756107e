"""Tests of the benchmark harness itself: `python3 perfbench/run.py --self-check`.

1. Every workload runs end to end at the quick sizes, traced and untraced,
   with no failed operation and exactly the metrics BENCHMARK.json declares.
2. Every correctness check passes on a real output and fires on a corrupted
   copy of it; a nonzero exit, a crash and a changed output between passes
   each count as a failed operation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def _edit_csv(payload: bytes, column: str, row: int, fn) -> bytes:
    """The CSV with one cell replaced by fn(old value as float)."""
    lines = payload.decode().splitlines()
    header, *rows = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    col = lines[header].split(",").index(column)
    cells = lines[rows[row]].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[rows[row]] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _edit_route(payload: bytes, route: str, fn) -> bytes:
    routes = checks.parse_csv(payload)["route"]
    return _edit_csv(payload, "value", routes.index(route), fn)


def _edit_json(payload: bytes, key: str, value: float) -> bytes:
    return json.dumps({**json.loads(payload), key: value}).encode()


CORRUPTIONS = {
    "simulate": [("K 20% high", lambda b: _edit_csv(b, "K", -1, lambda x: 1.2 * x))],
    "spectrum": [
        ("first gap off mu/2", lambda b: _edit_route(b, "first", lambda x: x * (1 + 1e-12))),
        ("sector route off by 1e-9", lambda b: _edit_route(b, "second_sector", lambda x: x + 1e-9)),
    ],
    "boltzmann": [
        ("m1 off by 1e-7", lambda b: _edit_csv(b, "m1", -1, lambda x: x + 1e-7)),
        ("m2 off by 1e-7", lambda b: _edit_csv(b, "m2", -1, lambda x: x + 1e-7)),
    ],
    "thermostat": [
        ("negative margin", lambda b: _edit_json(b, "margin", -1e-6)),
        ("negative smoothed margin", lambda b: _edit_json(b, "margin_smoothed", -1e-6)),
        ("OU excess", lambda b: _edit_json(b, "ou_excess", 1e-6)),
    ],
    "entropy": [("estimate above bound + 5 err", lambda b: _edit_csv(
        b, "S_estimate", 0, lambda x: x + 1e3))],
    "chaos": [
        ("metric NaN", lambda b: _edit_csv(b, "metric", 1, lambda x: math.nan)),
        ("no decrease with N", lambda b: _edit_csv(b, "metric", -1, lambda x: 1.0)),
    ],
}


def check_quick_runs(declared: dict) -> list[str]:
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--quick", "--workload", name,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"quick {name} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = declared["per_layer" if trace else "end_to_end"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                error = f"result keys {sorted(result)}"
            elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                error = f"{result['failed']} of {result['attempted']} operations failed"
            elif {k: v["unit"] for k, v in result["metrics"].items()} != want:
                error = "metrics differ from BENCHMARK.json"
            else:
                error = None
            print(f"  {label}: {error or 'ok'}")
            if error:
                errors.append(f"{label}: {error}")
    return errors


def check_corruptions(workdir: Path) -> list[str]:
    errors = []
    seen = set()
    for name in workloads.WORKLOADS:
        for variant in workloads.build(name, seed=3, quick=True).variants:
            for op in variant:
                if op.kind in seen:
                    continue
                seen.add(op.kind)
                payload = op.run(workdir)
                if op.check(payload):
                    errors.append(f"{op.name}: check fails on a real output: {op.check(payload)}")
                for label, corrupt in CORRUPTIONS[op.kind]:
                    fired = op.check(corrupt(payload))
                    print(f"  {op.kind:10s} {label:30s} -> {'fires' if fired else 'MISSED'}")
                    if not fired:
                        errors.append(f"{op.name}: check misses '{label}'")
    missing = set(CORRUPTIONS) - seen
    if missing:
        errors.append(f"no operation of kinds {sorted(missing)}")
    return errors


def check_failure_accounting(workdir: Path) -> list[str]:
    errors = []
    cases = [
        ("nonzero exit", workloads._verb("bad-flag", "spectrum",
                                         ["spectrum", "--n", "4", "--no-such-flag", "1"],
                                         lambda b: [])),
        ("crash", workloads._verb("crash", "simulate",
                                  ["simulate", "--n", "4", "--replicas", "0"], lambda b: [])),
    ]
    for label, op in cases:
        _, problems = run.run_op(op, workdir, {})
        print(f"  {label:41s} -> {'counted' if problems else 'MISSED'}")
        if not problems:
            errors.append(f"{label} is not counted as a failure")
    outputs = iter([b"first", b"second"])
    changing = workloads.Op("changing", "x", lambda wd: next(outputs), lambda b: [])
    digests: dict = {}
    run.run_op(changing, workdir, digests)
    _, problems = run.run_op(changing, workdir, digests)
    print(f"  {'output changed between passes':41s} -> {'counted' if problems else 'MISSED'}")
    if not problems:
        errors.append("a changed output between passes is not counted as a failure")
    return errors


def main() -> int:
    declared = run.declared_metrics()
    print("quick runs:")
    errors = check_quick_runs(declared)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        print("corrupted outputs:")
        errors += check_corruptions(workdir)
        print("failure accounting:")
        errors += check_failure_accounting(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"SELF-CHECK FAILED: {e}", file=sys.stderr)
    print("self-check " + ("failed" if errors else "passed"))
    return 1 if errors else 0

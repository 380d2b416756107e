#!/usr/bin/env python3
"""Benchmark of kaclab as its users run it: the CLI verbs and the entropy checks.

Run from the repository root:

    python3 perfbench/run.py --workload cooling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload snapshots --quick     # tiny sizes, a smoke test
    python3 perfbench/run.py --self-check                      # tests of the harness itself

One run builds the workload's inputs from --seed, runs its operations in a
closed loop for --seconds (at least two passes), checks every output, and
prints a report followed by one JSON line with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  Workloads, metrics and
what the benchmark leaves out are described in perfbench/README.md.
"""

import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the names of workloads.WORKLOADS; that module imports kaclab, which must wait
# until load_kaclab() has timed the import
WORKLOADS = ("cooling", "snapshots", "spectral")
SETUP_PROBES = 5
MIN_PASSES = 2

# End-to-end metrics that exist on one workload only.  BENCHMARK.json gates
# only metrics that every workload reports, so these are printed, not gated.
REPORT_ONLY_UNITS = {
    "failed_ratio": "ratio",
    "events_per_s": "1/s",
    "simulate_s": "s",
    "entropy_s": "s",
    "chaos_s": "s",
    "spectrum_s": "s",
    "boltzmann_s": "s",
    "thermostat_s": "s",
}


def load_kaclab() -> float:
    """Import kaclab.cli from this checkout's src/ and return the import time."""
    if not (SRC / "kaclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kaclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import kaclab.cli
    elapsed = time.perf_counter() - start
    if Path(kaclab.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported kaclab from {kaclab.cli.__file__}, not from {SRC}")
    return elapsed


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.machine())
    except OSError:
        cpu = platform.machine()
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


class SetupProbes:
    """Set-up time of fresh interpreters, from spawn until `kaclab.cli` is
    imported and the workload's inputs are built.  The probes are spread over
    the run, between passes, so that they sample the host as the passes do."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.quick:
            self.cmd.append("--quick")
        self.interval = args.seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.setup: list[float] = []
        self.imports: list[float] = []

    def _probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.setup.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: set-up probe exited with {proc.returncode}")
        self.imports.append(json.loads(line)["import_s"])

    def run_due(self) -> None:
        due = min(SETUP_PROBES, 1 + int((time.perf_counter() - self.start) / self.interval))
        while len(self.setup) < due:
            self._probe()

    def finish(self) -> None:
        while len(self.setup) < SETUP_PROBES:
            self._probe()


def run_op(op, workdir: Path, digests: dict) -> tuple[float, list[str]]:
    """Run one operation; return its time and the problems with its output."""
    start = time.perf_counter()
    try:
        payload = op.run(workdir)
    except Exception as exc:  # a crash of the program is a failed operation
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        problems = op.check(payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    digest = hashlib.sha256(payload).hexdigest()
    if digests.setdefault(op.name, digest) != digest:
        problems.append("output differs from an earlier pass of this run")
    return elapsed, problems


def run_pass(ops, label, traced, workdir: Path, digests: dict, records: list,
             deadline: float | None = None) -> bool:
    """Run `ops` in order, appending one record each.  Stop before an operation
    that would end after `deadline` if it takes as long as its slot's median
    so far.  Return whether every operation ran."""
    for slot, op in enumerate(ops):
        if deadline is not None:
            past = [r["seconds"] for r in records if r["slot"] == slot]
            if time.perf_counter() + (statistics.median(past) if past else 0.0) > deadline:
                return False
        elapsed, problems = run_op(op, workdir, digests)
        for p in problems:
            print(f"FAILED {op.name}: {p}", file=sys.stderr)
        records.append(dict(pass_=label, slot=slot, name=op.name, kind=op.kind, traced=traced,
                            seconds=elapsed, events=op.events, problems=problems))
    return True


def measure(workload, seconds: float, workdir: Path, digests: dict, tracer=None,
            between=lambda: None) -> list[dict]:
    """Closed loop over the workload's passes until `seconds` have elapsed,
    and at least MIN_PASSES passes; `between` runs before each pass.

    With a tracer, passes alternate untraced and traced; each mode cycles
    through the workload's variants on its own.
    """
    records: list[dict] = []
    passes = {False: 0, True: 0}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline:
        between()
        traced = tracer is not None and k % 2 == 1
        ops = workload.variants[passes[traced] % len(workload.variants)]
        complete = False
        if traced:
            tracer.begin_pass()
        try:
            complete = run_pass(ops, k, traced, workdir, digests, records,
                                deadline if k >= MIN_PASSES else None)
        finally:
            if traced:
                tracer.end_pass(complete)
        if not complete:
            break
        passes[traced] += 1
        k += 1
    return records


def slot_medians(records: list[dict], traced: bool) -> dict[int, dict]:
    """Median time of each pass slot over its successful operations."""
    by_slot: dict[int, list[dict]] = {}
    for r in records:
        if r["traced"] == traced and not r["problems"]:
            by_slot.setdefault(r["slot"], []).append(r)
    return {
        slot: dict(kind=rs[0]["kind"], events=rs[0]["events"], n=len(rs),
                   median=statistics.median(r["seconds"] for r in rs))
        for slot, rs in by_slot.items()
    }


def end_to_end(records, setup: list[float]) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric this workload has."""
    slots = slot_medians(records, traced=False)
    n = min(s["n"] for s in slots.values())
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    out = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(s["median"] for s in slots.values()), n),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "failed_ratio": (failed / attempted, attempted),
    }
    for kind in dict.fromkeys(s["kind"] for s in slots.values()):
        mine = [s for s in slots.values() if s["kind"] == kind]
        out[f"{kind}_s"] = (sum(s["median"] for s in mine), min(s["n"] for s in mine))
    sim = [s for s in slots.values() if s["events"] > 0]
    if sim:
        out["events_per_s"] = (sum(s["events"] for s in sim) / sum(s["median"] for s in sim),
                               min(s["n"] for s in sim))
    return out


def per_layer(records, tracer, imports: list[float], peak_bytes: int) -> dict[str, tuple]:
    import spans

    traced_wall = sum(s["median"] for s in slot_medians(records, traced=True).values())
    untraced_wall = sum(s["median"] for s in slot_medians(records, traced=False).values())
    n = len(tracer.passes)
    out = {key: (value, n) for key, value in spans.layer_metrics(tracer).items()}
    out["cli.import_s"] = (statistics.median(imports), len(imports))
    out["trace.overhead_s"] = (traced_wall - untraced_wall, n)
    out["simulator.peak_traced_mib"] = (peak_bytes / 2**20, 1)
    return out


def print_report(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, (value, n) in values.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]:8s} n={n}")


def run(args) -> int:
    import_s = load_kaclab()
    import spans
    import workloads

    declared = declared_metrics()
    facts = machine_facts(args.seed)
    workload = workloads.build(args.workload, args.seed, quick=args.quick)
    tracer = spans.Tracer() if args.trace else None
    tag = f"{'quick-' if args.quick else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests: dict = {}
        probes = SetupProbes(args)
        records = measure(workload, args.seconds, workdir, digests, tracer, probes.run_due)
        probes.finish()
        peak_bytes = 0
        if tracer is not None and tracer.touched("simulator.advance_to"):
            # one extra pass for the simulator's tracemalloc peak; it is checked
            # like every other pass but its times are not used
            with spans.MemoryProbe() as probe:
                run_pass(workload.variants[0], "memory", None, workdir, digests, records)
            peak_bytes = probe.peak_bytes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    e2e = end_to_end(records, probes.setup)
    units = {**REPORT_ONLY_UNITS, **declared["end_to_end"], **declared["per_layer"]}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} quick={int(args.quick)} import_s={import_s:.4f}")
    print("machine " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    print_report("end-to-end (tracing off; medians, n = samples):", e2e, units)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "machine": facts, "attempted": attempted, "failed": failed,
              "end_to_end": {k: {"value": v, "unit": units[k], "samples": n}
                             for k, (v, n) in e2e.items()},
              "operations": records}
    if tracer is not None:
        layers = per_layer(records, tracer, probes.imports, peak_bytes)
        print_report("per-layer (traced passes; medians, n = samples):", layers, units)
        result["per_layer"] = {k: {"value": v, "unit": units[k], "samples": n}
                               for k, (v, n) in layers.items()}
        with open(OUT / f"{tag}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans.dump(tracer), fh, separators=(",", ":"))
        gated, values = declared["per_layer"], layers
    else:
        gated, values = declared["end_to_end"], e2e
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    missing = sorted(set(gated) - set(values))
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in gated.items()},
    }))
    return 0


def setup_probe(args) -> int:
    import_s = load_kaclab()
    import workloads

    workloads.build(args.workload, args.seed, quick=args.quick)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes: a smoke test")
    parser.add_argument("--self-check", action="store_true",
                        help="test the harness: quick runs and corrupted outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        load_kaclab()
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into kaclab's public names, installed from outside the package.

Each public name is wrapped where it is looked up: `build_generator` both in
`kaclab.generator` (for `first_gap` and `second_gap`) and in `kaclab.cli`, the
simulator's `run` in `kaclab.cli`, `kaclab.entropy` and `kaclab.chaos`, the
core combinatorics as `kaclab.generator` sees them.  Nothing under
`src/kaclab` changes; uninstalling puts the original objects back.

A span is (name, start, end, parent, attrs).  Spans stay in memory, one list
per traced pass, and are written out when the run ends.  The layer of a span
is its name up to the first dot.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import kaclab.boltzmann as boltzmann
import kaclab.chaos as chaos
import kaclab.cli as cli
import kaclab.entropy as entropy
import kaclab.generator as generator
import kaclab.simulator as simulator

LAYERS = ("cli", "simulator", "generator", "core", "boltzmann", "entropy", "chaos")
CORE_NAMES = ("angular_moment_exact", "compositions", "hermite_eigenvalue_s_exact",
              "kac_gap_Lambda", "multinomial", "orbit_size", "partitions",
              "sphere_moment_Gamma_exact")


def _expected_events(args, kwargs) -> dict:
    ens, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
    p = ens.params
    return {"events": (p.lam + p.mu) * p.n_particles * max(0.0, t - ens.time) * ens.n_replicas}


# (owner, attribute, span name, attrs before the call, attrs after it returns)
PATCHES = [
    (cli, "main", "cli.main", lambda a, k: {"verb": a[0][0]}, None),
    (cli, "emit_csv", "cli.emit_csv", None, lambda a, k: {"bytes": os.path.getsize(a[0])}),
    (cli, "run", "simulator.run", None, None),
    (entropy, "run", "simulator.run", None, None),
    (chaos, "run", "simulator.run", None, None),
    (simulator.Ensemble, "create", "simulator.create", None, None),
    (simulator.Ensemble, "advance_to", "simulator.advance_to", _expected_events, None),
    (cli, "first_gap", "generator.first_gap", None, None),
    (cli, "second_gap", "generator.second_gap", None, None),
    (cli, "build_generator", "generator.build_generator", lambda a, k: {"dim": a[0].dim}, None),
    (generator, "build_generator", "generator.build_generator",
     lambda a, k: {"dim": a[0].dim}, None),
    (cli, "sector_basis", "generator.sector_basis", None, None),
    (generator, "sector_basis", "generator.sector_basis", None, None),
    (generator.SectorMatrix, "eigenvalues", "generator.eigenvalues", None, None),
    *[(generator, name, f"core.{name}", None, None) for name in CORE_NAMES],
    (cli, "integrate_moments", "boltzmann.integrate_moments", None, None),
    (boltzmann, "moment_rhs", "boltzmann.moment_rhs", None, None),
    (cli, "entropy_decay_experiment", "entropy.entropy_decay_experiment", None, None),
    (entropy, "check_thermostat_entropy_inequality", "entropy.check_thermostat", None, None),
    (entropy, "gauss_weighted_entropy", "entropy.gauss_weighted_entropy", None, None),
    (entropy, "t_apply", "entropy.t_apply", None, None),
    (entropy, "ou_apply", "entropy.ou_apply", None, None),
    (entropy, "evaluate", "entropy.evaluate", None, lambda a, k: {"points": int(np.size(a[1]))}),
    (cli, "chaos_ladder", "chaos.chaos_ladder", None, None),
]


def _swap(owner, attr, make):
    """Replace owner.attr by make(function); return a callable that restores it."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return lambda: setattr(owner, attr, raw)


class Tracer:
    """Records spans while installed; one span list per traced pass."""

    def __init__(self):
        self.passes: list[tuple[float, float, list]] = []  # (wall seconds, start, spans)
        self._spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, before, after):
        spans, stack = self._spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                attrs = before(args, kwargs) if before else None
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    if after:
                        attrs = {**(attrs or {}), **after(args, kwargs)}
                    return out
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, attrs)

            return wrapper

        return make

    def begin_pass(self) -> None:
        self._spans.clear()
        self._stack.clear()
        for owner, attr, name, before, after in PATCHES:
            self._restore.append(_swap(owner, attr, self._wrap(name, before, after)))
        self._pass_start = time.perf_counter()

    def end_pass(self, complete: bool) -> None:
        wall = time.perf_counter() - self._pass_start
        while self._restore:
            self._restore.pop()()
        if complete:
            self.passes.append((wall, self._pass_start, list(self._spans)))

    def touched(self, name: str) -> bool:
        return any(s[0] == name for _, _, spans in self.passes for s in spans)


class MemoryProbe:
    """tracemalloc peak across each `Ensemble.advance_to` call, kept apart from
    the timed passes because tracemalloc roughly doubles the simulator's time."""

    def __init__(self):
        self.peak_bytes = 0

    def __enter__(self):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            return wrapper

        self._restore = _swap(simulator.Ensemble, "advance_to", make)
        return self

    def __exit__(self, *exc):
        self._restore()


def pass_metrics(wall: float, spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total = defaultdict(float)
    count = defaultdict(int)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        count[s[0]] += 1
        self_time[s[0].split(".")[0]] += dur[i] - child[i]

    def under(name: str, parent: str) -> list[float]:
        return [dur[i] for i, s in enumerate(spans)
                if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent]

    def attr_sum(name: str, key: str) -> float:
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    verbs = defaultdict(int)
    for s in spans:
        if s[0] == "cli.main":
            verbs[s[4]["verb"]] += 1
    events = attr_sum("simulator.advance_to", "events")
    points = attr_sum("entropy.evaluate", "points")
    decay_sim = sum(under("simulator.run", "entropy.entropy_decay_experiment"))
    rungs = under("simulator.run", "chaos.chaos_ladder")
    dims = [s[4]["dim"] for s in spans if s[0] == "generator.build_generator"]
    out = {
        "simulator.advance_s": total["simulator.advance_to"],
        "simulator.ns_per_event": ratio(1e9 * total["simulator.advance_to"], events),
        "simulator.intervals": count["simulator.advance_to"],
        "simulator.create_s": total["simulator.create"],
        "simulator.observe_s": total["simulator.run"] - total["simulator.create"]
        - total["simulator.advance_to"],
        "generator.assemblies": ratio(count["generator.build_generator"], verbs["spectrum"]),
        "generator.assemble_s": total["generator.build_generator"],
        "generator.eigen_s": total["generator.eigenvalues"],
        "generator.sector_dim_max": max(dims, default=0),
        # core spans have no children, so the layer's self time is all of it
        "core.combinatorics_s": self_time.pop("core"),
        "boltzmann.integrate_s": total["boltzmann.integrate_moments"],
        "boltzmann.rhs_evals": ratio(count["boltzmann.moment_rhs"], verbs["boltzmann"]),
        "boltzmann.rhs_us": ratio(1e6 * total["boltzmann.moment_rhs"],
                                  count["boltzmann.moment_rhs"]),
        "entropy.t_apply_s": total["entropy.t_apply"],
        "entropy.ou_apply_s": total["entropy.ou_apply"],
        "entropy.evaluate_calls": count["entropy.evaluate"],
        "entropy.evaluate_points": points,
        "entropy.evaluate_ns_per_point": ratio(1e9 * total["entropy.evaluate"], points),
        "entropy.decay_sim_s": decay_sim,
        "entropy.estimator_s": total["entropy.entropy_decay_experiment"] - decay_sim,
        "chaos.ladder_sim_s": sum(rungs),
        "chaos.marginals_s": total["chaos.chaos_ladder"] - sum(rungs),
        "chaos.rungs": ratio(len(rungs), verbs["chaos"]),
        "cli.emit_s": total["cli.emit_csv"],
        "cli.csv_bytes": attr_sum("cli.emit_csv", "bytes"),
        "trace.uncovered_s": wall - sum(d for d, s in zip(dur, spans) if s[3] < 0),
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": t for layer, t in self_time.items()})
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the complete traced passes of each per-pass layer metric."""
    per_pass = [pass_metrics(wall, spans) for wall, _, spans in tracer.passes]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def dump(tracer: Tracer) -> list:
    """The recorded spans in a JSON-ready form, times relative to each pass start."""
    return [[[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in spans]
            for _, t0, spans in tracer.passes]

"""The benchmark's three workloads, built from a seed.

A workload is a list of pass variants; each variant is a tuple of operations
run back to back (a closed loop: each operation starts when the previous one
ends).  Variants of one workload have the same operation kinds and sizes in
the same slots, so per-slot timings pool across variants.  Operations go
through the public entry points users call: `kaclab.cli.main` for the verbs
and `kaclab.entropy` for the thermostat and smoothing checks, which have no
verb.  Names are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import kaclab.cli as cli
import kaclab.entropy as entropy

# Sizes are fixed per mode; the seed never changes them.  The quick mode is a
# smoke test of the harness at tiny sizes, not a measurement.
SIZES = {
    "full": dict(cooling_replicas=1000, snapshot_replicas=2000, spectrum_n=(16, 64, 128),
                 boltzmann_horizon=10.0 / 1.3, boltzmann_samples=41, grid_points=2048),
    "quick": dict(cooling_replicas=200, snapshot_replicas=200, spectrum_n=(8, 16),
                  boltzmann_horizon=1.0, boltzmann_samples=5, grid_points=256),
}
# the cooling check's 2% tolerance is about 6 sigma at 2000 replicas; keep
# that margin at smaller ensembles
COOLING_TOL_REPLICAS = 2000
COOLING_LAMBDAS = (0.0, 1.0, 10.0)
OU_TIMES = (0.1, 0.5, 1.0, 2.0)
# criterion 06's configuration: lam 0.7, mu 1.3, initial Gaussian variance 2, mean 0.4,
# horizon 10/mu; the horizon is passed with all its digits so the integrator
# takes the criterion's 21,720 right-hand-side evaluations
BOLTZMANN = dict(lam=0.7, mu=1.3, t0=2.0, mean=0.4, kmax=8)

WORKLOADS = ("cooling", "snapshots", "spectral")


class OpFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Op:
    name: str                              # equal names must give identical bytes
    kind: str                              # reported as <kind>_s
    run: Callable[[Path], bytes]           # does the work, returns its output
    check: Callable[[bytes], list[str]]    # problems with that output
    events: float = 0.0                    # expected simulator events (simulate verbs)


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple[tuple[Op, ...], ...]


def _verb(name: str, kind: str, argv: list[str], check, events: float = 0.0) -> Op:
    def run(workdir: Path) -> bytes:
        out = workdir / f"{name}.csv"
        rc = cli.main([*argv, "--out", str(out)])
        if rc != 0:
            raise OpFailed(f"kaclab {' '.join(argv)} exited with {rc}")
        return out.read_bytes()

    return Op(name=name, kind=kind, run=run, check=check, events=events)


def _cooling(seed: int, size: dict) -> Workload:
    n, mu, k0, horizon, m = 100, 1.0, 100.0, 4.4, size["cooling_replicas"]
    tol = 0.02 * max(1.0, math.sqrt(COOLING_TOL_REPLICAS / m))
    ops = tuple(
        _verb(
            f"simulate-lambda{lam:g}", "simulate",
            ["simulate", "--n", str(n), "--mu", f"{mu:g}", "--lambda", f"{lam:g}",
             "--k0", f"{k0:g}", "--horizon", f"{horizon:g}", "--samples", "5",
             "--replicas", str(m), "--seed", str(seed)],
            lambda b: checks.cooling(b, n=n, k0=k0, mu=mu, tol=tol),
            events=(lam + mu) * n * horizon * m,
        )
        for lam in COOLING_LAMBDAS
    )
    return Workload("cooling", (ops,))


def _snapshots(seed: int, size: dict) -> Workload:
    m = str(size["snapshot_replicas"])
    ops = (
        _verb("entropy", "entropy",
              ["entropy", "--n", "50", "--mu", "1", "--lambda", "1", "--replicas", m,
               "--seed", str(seed)],
              checks.entropy),
        _verb("chaos", "chaos",
              ["chaos", "--replicas", m, "--n-ladder", "10,50,250,1250", "--seed", str(seed)],
              checks.chaos),
    )
    return Workload("snapshots", (ops,))


def mixture_ratio(weights, means, variances, grid_points: int) -> entropy.DensityGrid:
    """Ratio f/g of a Gaussian mixture f to the standard Gaussian g, on a grid."""

    def fn(v):
        v = np.asarray(v, dtype=float)
        f = np.zeros_like(v)
        for w, m, s2 in zip(weights, means, variances):
            f += w * np.exp(-((v - m) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
        return f / entropy.standard_gaussian(v)

    return entropy.DensityGrid.from_function(fn, n=grid_points)


def _thermostat(name: str, grid: entropy.DensityGrid) -> Op:
    def run(workdir: Path) -> bytes:
        report = entropy.check_thermostat_entropy_inequality(grid, strict=False)
        base = entropy.gauss_weighted_entropy(grid)
        excess = max(
            entropy.gauss_weighted_entropy(entropy.ou_apply(grid, s)) - math.exp(-2 * s) * base
            for s in OU_TIMES
        )
        return json.dumps({"margin": report.margin, "margin_smoothed": report.margin_smoothed,
                           "ou_excess": excess}).encode()

    return Op(name=name, kind="thermostat", run=run, check=checks.thermostat)


def _spectral(seed: int, size: dict) -> Workload:
    # the seed picks rates and mixture parameters from fixed ranges, never sizes
    rng = np.random.default_rng([seed, 0x5BEC])
    head = []
    for n in size["spectrum_n"]:
        lam, mu = (f"{x:.6f}" for x in rng.uniform(0.5, 2.0, 2))
        head.append(_verb(f"spectrum-n{n}", "spectrum",
                          ["spectrum", "--n", str(n), "--lambda", lam, "--mu", mu],
                          lambda b, mu=float(mu): checks.spectrum(b, mu=mu)))
    b = BOLTZMANN
    head.append(_verb(
        "boltzmann", "boltzmann",
        ["boltzmann", "--lambda", f"{b['lam']:g}", "--mu", f"{b['mu']:g}", "--t0", f"{b['t0']:g}",
         "--mean", f"{b['mean']:g}", "--kmax", str(b["kmax"]),
         "--horizon", repr(size["boltzmann_horizon"]),
         "--samples", str(size["boltzmann_samples"])],
        lambda out: checks.boltzmann(out, lam=b["lam"], mu=b["mu"], m1_0=b["mean"],
                                     m2_0=b["t0"] + b["mean"] ** 2),
    ))
    variants = []
    for label in ("a", "b"):
        w = rng.uniform(0.3, 0.7)
        grid = mixture_ratio(
            [w, 1.0 - w],
            [rng.uniform(-1.5, -0.3), rng.uniform(0.3, 1.5)],
            rng.uniform(0.4, 1.5, 2),
            size["grid_points"],
        )
        variants.append((*head, _thermostat(f"thermostat-{label}", grid)))
    return Workload("spectral", tuple(variants))


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload's operations with inputs made from `seed`."""
    size = SIZES["quick" if quick else "full"]
    return {"cooling": _cooling, "snapshots": _snapshots, "spectral": _spectral}[name](seed, size)

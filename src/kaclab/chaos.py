"""Factorization diagnostics for the particle system's marginals.

As the particle number grows, the two-particle marginal of the evolved law
factorizes into the product of one-particle marginals (weakly), and the
one-particle marginal follows the limiting kinetic equation.  This module
estimates one- and two-particle marginals from ensemble snapshots, measures
the factorization defect against a fixed dictionary of bounded test-function
pairs, and compares pooled simulator moments with the closed moment
hierarchy.

The dictionary is a declared relaxation of "all bounded continuous test
functions": twelve Gaussian-damped Hermite pair products of degree <= 4,
which keeps the metric reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import hermite_e

from .core import Params, gaussian_moment
from .boltzmann import MomentVector, integrate_moments
from .simulator import ProductGaussian, cell_counts, run

GRID_BINS_1D = 256
GRID_BINS_2D = 64
GRID_HALF_WIDTH = 10.0  # in units of the equilibrium standard deviation


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Histogram estimate of the k-particle marginal pooled over particles,
    pairs and replicas.  Cells are half-open, [e_b, e_(b+1)); cell 0 and cell
    -1 on each axis hold the mass below edges[0] and at or above edges[-1]
    (`simulator.cell_counts`)."""

    k: int
    masses: np.ndarray          # (bins+2,) for k=1, (bins+2, bins+2) for k=2
    edges: np.ndarray
    n_particles: int
    n_replicas: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _weighted_masses(counts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-particle cell masses from (M, cells) per-replica cell
    counts, replica r entering with weight weights[r].  The ordered distinct
    pairs of one replica fill c c^T less its diagonal c; every sum is of
    integers, so the masses do not depend on the summation order."""
    n = int(counts[0].sum())
    c = counts.astype(float)
    cw = c * weights[:, None]
    singles = cw.sum(axis=0)
    pair = cw.T @ c
    pair[np.diag_indices(c.shape[1])] -= singles
    total = weights.sum()
    return singles / (total * n), pair / (total * n * (n - 1))


def extract_marginals(
    snapshot: np.ndarray,
    k: int,
    beta: float = 1.0,
) -> MarginalSet:
    """One- or two-particle marginal histogram from an (M, N) snapshot, with
    GRID_BINS_1D or GRID_BINS_2D cells per axis over +-GRID_HALF_WIDTH sigma.

    Pooling runs over all particles (k=1) or all ordered distinct pairs (k=2)
    of every replica, so permuting particle labels cannot change the result.
    """
    v = np.asarray(snapshot, dtype=float)
    if v.ndim != 2:
        raise ValueError("snapshot must be (replicas, particles)")
    m, n = v.shape
    if k not in (1, 2):
        raise ValueError(f"marginal order must be 1 or 2, got {k}")
    if k == 2 and n < 2:
        raise ValueError("pair marginal needs N >= 2")
    bins = GRID_BINS_1D if k == 1 else GRID_BINS_2D

    scale = 1.0 / math.sqrt(beta)
    edges = np.linspace(-GRID_HALF_WIDTH * scale, GRID_HALF_WIDTH * scale, bins + 1)
    counts = cell_counts(v, edges)
    if k == 1:
        masses = counts.sum(axis=0) / (m * n)
    else:
        masses = _weighted_masses(counts, np.ones(m))[1]
    return MarginalSet(k=k, masses=masses, edges=edges, n_particles=n, n_replicas=m)


# ---------------------------------------------------------------------------
# test-function dictionary

_DICTIONARY_DEGREES = [(0, 2), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4),
                       (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]


def _damped_hermite(degree: int):
    coef = np.zeros(degree + 1)
    coef[degree] = 1.0
    probe = np.linspace(-14.0, 14.0, 20001)
    raw = hermite_e.hermeval(probe, coef) * np.exp(-probe**2 / 4.0)
    scale = float(np.max(np.abs(raw)))

    def phi(v):
        v = np.asarray(v, dtype=float)
        return hermite_e.hermeval(v, coef) * np.exp(-v**2 / 4.0) / scale

    return phi


_PHI = [_damped_hermite(d) for d in range(5)]


def _phi_cells(degree: int, edges: np.ndarray) -> np.ndarray:
    # bounded test functions are numerically zero past the binning range, so
    # the under/overflow cells contribute nothing
    out = np.zeros(edges.size + 1)
    out[1:-1] = _PHI[degree](0.5 * (edges[:-1] + edges[1:]))
    return out


def _metric_from_masses(m1: np.ndarray, m2: np.ndarray, edges1: np.ndarray,
                        edges2: np.ndarray) -> float:
    singles = {d: float(_phi_cells(d, edges1) @ m1) for d in range(5)}
    pair_cells = {d: _phi_cells(d, edges2) for d in range(5)}
    worst = 0.0
    for i, j in _DICTIONARY_DEGREES:
        pair_val = float(pair_cells[i] @ m2 @ pair_cells[j])
        worst = max(worst, abs(pair_val - singles[i] * singles[j]))
    return worst


def chaos_metric(one: MarginalSet, two: MarginalSet) -> float:
    """Worst factorization defect |<phi_i x phi_j, f2> - <phi_i, f1><phi_j, f1>|
    over the test-function dictionary."""
    if one.k != 1 or two.k != 2:
        raise ValueError("expected a one-particle and a two-particle marginal")
    if one.n_particles != two.n_particles:
        raise ValueError("marginals come from different ensembles")
    return _metric_from_masses(one.masses, two.masses, one.edges, two.edges)


@dataclass
class ChaosLadderPoint:
    n_particles: int
    time: float
    metric: float
    stderr: float
    seed: int


def chaos_ladder(
    base_params: Params,
    n_values=(10, 50, 250, 1250),
    time: float | None = None,
    n_replicas: int = 4000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    n_bootstrap: int = 16,
) -> list[ChaosLadderPoint]:
    """Factorization defect at a fixed time across a ladder of system sizes.

    The initial law is a chaotic (product) non-Gaussian start: uniform
    velocities with the requested temperature.  Error bars bootstrap over
    replicas, reusing per-replica cell counts so resampling is a weighted sum.
    """
    t = 1.0 / base_params.mu if time is None else time
    out = []
    half = math.sqrt(3.0 * initial_temperature / base_params.beta)
    uniform = lambda rng, n: rng.uniform(-half, half, n)
    for n in n_values:
        params = replace(base_params, n_particles=n)
        series = run(
            params,
            n_replicas=n_replicas,
            horizon=t,
            sample_times=[0.0, t],
            seed=seed,
            initial=uniform,
            snapshot_times=[t],
        )
        scale = 1.0 / math.sqrt(params.beta)
        edges = np.linspace(-GRID_HALF_WIDTH * scale, GRID_HALF_WIDTH * scale, GRID_BINS_2D + 1)
        counts = cell_counts(series.snapshots[t], edges)
        metric = _metric_from_masses(*_weighted_masses(counts, np.ones(n_replicas)), edges, edges)
        weights = np.random.default_rng(seed + 0xC0FFEE).multinomial(
            n_replicas, np.full(n_replicas, 1.0 / n_replicas), size=n_bootstrap)
        boots = [_metric_from_masses(*_weighted_masses(counts, w.astype(float)), edges, edges)
                 for w in weights]
        out.append(
            ChaosLadderPoint(
                n_particles=n, time=t, metric=metric,
                stderr=float(np.std(boots, ddof=1)) if n_bootstrap > 1 else float("nan"),
                seed=seed,
            )
        )
    return out


# ---------------------------------------------------------------------------
# moment comparison against the hierarchy

@dataclass
class BoltzmannComparison:
    n_particles: int
    times: np.ndarray
    simulated: np.ndarray       # (T, 6)
    stderr: np.ndarray          # (T, 6)
    predicted: np.ndarray       # (T, 6)
    standardized: np.ndarray    # (T, 6)

    @property
    def max_standardized(self) -> float:
        return float(np.max(np.abs(self.standardized)))


def compare_to_boltzmann(
    params: Params,
    initial: ProductGaussian,
    horizon: float,
    n_values=(50, 500),
    n_replicas: int = 400,
    sample_times=None,
    seed: int = 0,
) -> dict[int, BoltzmannComparison]:
    """Pooled one-particle moments of finite-N ensembles against the moment
    hierarchy started from the same initial moments."""
    if not isinstance(initial, ProductGaussian):
        raise TypeError("comparison needs chaotic (product Gaussian) initial data")
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, 9)
    times = np.asarray(sample_times, dtype=float)
    m0 = MomentVector(
        m=np.array(
            [gaussian_moment(q, initial.temperature, initial.mean) for q in range(9)]
        )
    )
    ode = integrate_moments(m0, params, horizon=horizon, sample_times=times)
    predicted = ode.values[:, 1:7]

    out: dict[int, BoltzmannComparison] = {}
    for k, n in enumerate(n_values):
        p_n = replace(params, n_particles=n)
        series = run(
            p_n,
            n_replicas=n_replicas,
            horizon=horizon,
            sample_times=times,
            seed=seed + k,
            initial=initial,
        )
        stderr = np.maximum(series.moment_stderr, 1e-300)
        std = (series.moments - predicted) / stderr
        out[n] = BoltzmannComparison(
            n_particles=n,
            times=times,
            simulated=series.moments,
            stderr=series.moment_stderr,
            predicted=predicted,
            standardized=std,
        )
    return out


# ---------------------------------------------------------------------------
# series-expansion diagnostics

@dataclass(frozen=True)
class SeriesBound:
    """Convergence diagnostics for the correlation-expansion bound."""

    radius: float        # guaranteed absolute-convergence horizon 1/(4 lam + mu)
    growth_rate: float   # geometric factor 4 lam + 2 mu in the term bound
    arity: int

    def term_bound(self, order: int) -> float:
        out = 1.0
        for j in range(order):
            out *= self.growth_rate * (self.arity + j)
        return out

    def term_ratio(self, order: int, t: float) -> float:
        """Ratio of consecutive series terms t^l/l! * term_bound(l)."""
        return t * self.growth_rate * (self.arity + order) / (order + 1)


def mckean_series_radius(params: Params, arity: int) -> SeriesBound:
    """Guaranteed convergence horizon of the correlation expansion for test
    functions of `arity` variables, with the term-bound sequence."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    denom = 4.0 * params.lam + params.mu
    radius = math.inf if denom == 0.0 else 1.0 / denom
    return SeriesBound(
        radius=radius, growth_rate=4.0 * params.lam + 2.0 * params.mu, arity=arity
    )

"""Factorization diagnostics for the particle system's marginals.

As the particle number grows, the two-particle marginal of the evolved law
factorizes into the product of one-particle marginals (weakly), and the
one-particle marginal follows the limiting kinetic equation.  This module
counts each replica's velocities per cell where the simulator stops, measures
the factorization defect of the pooled one- and two-particle marginals against
a fixed dictionary of bounded test-function pairs, and compares pooled
simulator moments with the closed moment hierarchy.  The defect of the sample
and of every bootstrap resample comes from per-replica sums of the test
functions, with no pair matrix.

The dictionary is a declared relaxation of "all bounded continuous test
functions": twelve Gaussian-damped Hermite pair products of degree <= 4,
which keeps the metric reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import hermite_e

from .core import Params, gaussian_moments
from .boltzmann import MomentVector, integrate_moments
from .simulator import ProductGaussian, Uniform, bootstrap_weights, cell_counts, run

GRID_BINS_2D = 64
GRID_HALF_WIDTH = 10.0  # in units of the equilibrium standard deviation
BOOTSTRAP_RESAMPLES = 16  # replica resamples behind each chaos error bar


def _grid_edges(beta: float, bins: int) -> np.ndarray:
    scale = 1.0 / math.sqrt(beta)
    return np.linspace(-GRID_HALF_WIDTH * scale, GRID_HALF_WIDTH * scale, bins + 1)


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
        # the Gaussian factor is exactly 0 past |v| = 54.6, so clipping
        # changes no value and keeps hermeval from overflowing
        v = np.clip(np.asarray(v, dtype=float), -60.0, 60.0)
        return hermite_e.hermeval(v, coef) * np.exp(-v**2 / 4.0) / scale

    return phi


_PHI = [_damped_hermite(d) for d in range(5)]


_FIRST, _SECOND = np.array(_DICTIONARY_DEGREES).T


def _defects(counts: np.ndarray, weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Factorization defect of every row of a bootstrap design, from (M, cells)
    per-replica cell counts, replica r entering row b with weight weights[b, r].

    With s_ri the sum of phi_i over replica r, the replica's ordered distinct
    pairs sum phi_i x phi_j to s_ri s_rj - sum_c counts_rc phi_i phi_j, so each
    row needs only per-replica sums.  Each row adds them over the replicas in
    one fixed order (einsum, not BLAS), so a row's value does not depend on how
    many rows the design has.  The test functions are numerically zero past
    the binning range, so the under/overflow cells contribute nothing."""
    n = counts[0].sum()
    phi = np.zeros((edges.size + 1, len(_PHI)))
    phi[1:-1] = np.stack([f(0.5 * (edges[:-1] + edges[1:])) for f in _PHI], axis=1)
    sums = counts @ phi
    pairs = sums[:, _FIRST] * sums[:, _SECOND] - counts @ (phi[:, _FIRST] * phi[:, _SECOND])
    total = weights.sum(axis=1)[:, None]
    singles = np.einsum("bm,mk->bk", weights, sums) / (total * n)
    pair = np.einsum("bm,mk->bk", weights, pairs) / (total * n * (n - 1))
    return np.max(np.abs(pair - singles[:, _FIRST] * singles[:, _SECOND]), axis=1)


@dataclass
class ChaosLadderPoint:
    n_particles: int
    time: float
    metric: float
    stderr: float


def chaos_ladder(
    base_params: Params,
    n_values,
    *,
    time: float,
    n_replicas: int,
    seed: int = 0,
    initial_temperature: float = 2.0,
) -> list[ChaosLadderPoint]:
    """Factorization defect at a fixed time across a ladder of system sizes.

    The initial law is a chaotic (product) non-Gaussian start: `Uniform`
    velocities with the requested temperature.  Error bars bootstrap over
    replicas: one design of BOOTSTRAP_RESAMPLES resamples, `bootstrap_weights`
    at seed + 0xC0FFEE, is drawn before the ladder and reused at every rung.
    Its row 0 is the sample itself, so one `_defects` pass over the rung's
    per-replica cell counts gives the metric and every resample.
    """
    if any(n < 2 for n in n_values):
        raise ValueError("a chaos rung needs N >= 2")
    out = []
    initial = Uniform(math.sqrt(3.0 * initial_temperature / base_params.beta))
    weights = bootstrap_weights(n_replicas, BOOTSTRAP_RESAMPLES, seed + 0xC0FFEE)
    for n in n_values:
        params = replace(base_params, n_particles=n)
        edges = _grid_edges(params.beta, GRID_BINS_2D)
        seen = []
        run(
            params,
            n_replicas=n_replicas,
            sample_times=(),
            seed=seed,
            initial=initial,
            observe_times=[time],
            observe=lambda _, v: seen.append(cell_counts(v, edges)),
        )
        defects = _defects(seen[0], weights, edges)
        out.append(ChaosLadderPoint(n_particles=n, time=time, metric=float(defects[0]),
                                    stderr=float(np.std(defects[1:], ddof=1))))
    return out


# ---------------------------------------------------------------------------
# moment comparison against the hierarchy

@dataclass
class BoltzmannComparison:
    standardized: np.ndarray    # (T, 6): (simulated - predicted) / stderr

    @property
    def max_standardized(self) -> float:
        return float(np.max(np.abs(self.standardized)))


def compare_to_boltzmann(
    params: Params,
    initial: ProductGaussian,
    sample_times,
    n_values=(50, 500),
    n_replicas: int = 400,
    seed: int = 0,
) -> dict[int, BoltzmannComparison]:
    """Pooled one-particle moments of finite-N ensembles against the moment
    hierarchy started from the same initial moments."""
    if not isinstance(initial, ProductGaussian):
        raise TypeError("comparison needs chaotic (product Gaussian) initial data")
    m0 = MomentVector(m=gaussian_moments(8, initial.temperature, initial.mean))
    ode = integrate_moments(m0, params, sample_times)
    predicted = ode.values[:, 1:7]

    out: dict[int, BoltzmannComparison] = {}
    for k, n in enumerate(n_values):
        p_n = replace(params, n_particles=n)
        series = run(
            p_n,
            n_replicas=n_replicas,
            sample_times=ode.times,
            seed=seed + k,
            initial=initial,
        )
        stderr = np.maximum(series.moment_stderr, 1e-300)
        out[n] = BoltzmannComparison(standardized=(series.moments - predicted) / stderr)
    return out

"""Moment hierarchy of the limiting one-particle kinetic equation.

Integrating v^n against the evolution closes on the raw moments exactly: the
n-th derivative involves only moments of order <= n (lower-triangular system),
so no closure approximation is needed.

    dm_n/dt = 2*lam * ( sum_k C(n,k) A(k, n-k) m_k m_{n-k}  -  m_n )
            +   mu  * ( sum_k C(n,k) A(k, n-k) m_k g_{n-k}  -  m_n )

with A the full-period angular moment and g the Gaussian(0, 1/beta) moments.
Linearizing about the Gaussian, the degree-n Hermite mode decays at rate
2*lam*(1 - 2 s_n) + mu*(1 - s_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

import numpy as np

from .core import Params, angular_moment, check_times, gaussian_moments, hermite_eigenvalue_s

# the first step, in time scaled by the rates
INITIAL_STEP = 1e-2
# the bound on the embedded local-error estimate, relative to max(1, |m|)
STEP_TOL = 1e-9
SAFETY = 0.9
_EPS = float(np.finfo(float).eps)
HANKEL_TOL = 1e-8
# the largest max(lam, mu) t that the solver takes: its scaled times stay below
# 2**1001 and the products h a_n below 2**1003
MAX_RATE_TIME = 2.0**1000

# 3-stage Radau IIA (Hairer & Wanner, Solving ODEs II, Sec. IV.5): order 5,
# stage order 3, L-stable and stiffly accurate, so a step ends on its last stage
_S6 = math.sqrt(6.0)
_RADAU_A = np.array([
    [(88.0 - 7.0 * _S6) / 360.0, (296.0 - 169.0 * _S6) / 1800.0, (-2.0 + 3.0 * _S6) / 225.0],
    [(296.0 + 169.0 * _S6) / 1800.0, (88.0 + 7.0 * _S6) / 360.0, (-2.0 - 3.0 * _S6) / 225.0],
    [(16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0],
])
# the real eigenvalue gamma0 of _RADAU_A and the weights e of the embedded error
# estimate (I - h gamma0 J)^-1 (h gamma0 f(y) + sum_i e_i (Y_i - y)), ibid. Sec. IV.8
_GAMMA0 = (6.0 + 81.0 ** (1.0 / 3.0) - 9.0 ** (1.0 / 3.0)) / 30.0
_ERROR_WEIGHTS = _GAMMA0 * np.array([-13.0 - 7.0 * _S6, -13.0 + 7.0 * _S6, -1.0]) / 3.0


class IntegrationError(RuntimeError):
    """Moment positivity lost at an output time, or no step meets the error test."""


@dataclass
class MomentVector:
    """Raw moments m_0..m_order of the one-particle density at one time."""

    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.ndim != 1 or self.m.size < 1:
            raise ValueError("moments must be a 1-d array")
        if abs(self.m[0] - 1.0) > 1e-12:
            raise ValueError(f"m_0 must be 1 (mass), got {self.m[0]!r}")

    @property
    def order(self) -> int:
        return self.m.size - 1


@dataclass
class MomentSeries:
    times: np.ndarray
    values: np.ndarray  # (T, order+1)
    accepted: int = 0  # solver steps
    rejected: int = 0

    def component(self, k: int) -> np.ndarray:
        return self.values[:, k]


@lru_cache(maxsize=None)
def _rhs_tables(order: int, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixing weights w[n,k] = C(n,k) A(k, n-k), the index table n-k, and the
    thermostat rows w[n,k] g_{n-k}; zero (index 0) above the diagonal."""
    w = np.zeros((order + 1, order + 1))
    for n in range(order + 1):
        for k in range(n + 1):
            w[n, k] = math.comb(n, k) * angular_moment(k, n - k)
    idx = np.arange(order + 1)
    rev = np.maximum(idx[:, None] - idx[None, :], 0)
    wg = w * gaussian_moments(order, 1.0 / beta)[rev]
    for table in (w, rev, wg):
        table.flags.writeable = False
    return w, rev, wg


def moment_rhs(m: np.ndarray, params: Params) -> np.ndarray:
    """Time derivative of the moment vector; lower-triangular in the order."""
    m = np.asarray(m, dtype=float)
    w, rev, wg = _rhs_tables(m.size - 1, params.beta)
    coll = (w * m[rev]) @ m - m
    ther = wg @ m - m
    return 2.0 * params.lam * coll + params.mu * ther


def linearized_eigenvalue(n: int, params: Params) -> float:
    """Decay rate of the degree-n Hermite mode of the linearized equation."""
    if n < 1:
        raise ValueError("mode index must be >= 1")
    s = hermite_eigenvalue_s(n)
    return 2.0 * params.lam * (1.0 - 2.0 * s) + params.mu * (1.0 - s)


def _hankel_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the diagonally scaled Hankel moment matrix built
    from m_0..m_{2 half}, half = order // 2 (the top moment of an odd order
    does not enter)."""
    half = (m.size - 1) // 2
    h = np.empty((half + 1, half + 1))
    for i in range(half + 1):
        h[i] = m[i : i + half + 1]
    d = np.sqrt(np.maximum(np.diag(h), 1e-300))
    h = h / d[:, None] / d[None, :]
    return float(np.linalg.eigvalsh(h)[0])


def _even_rows(table: np.ndarray, first: int) -> list:
    """Row n of `table` at the columns first, first + 2, .., n - 2, as lists; empty
    at odd n.  The odd angular moments vanish, so w[n, k] is zero unless k and
    n - k are both even: F_n vanishes at odd n and takes even moments alone."""
    return [table[n, first : n - 1 : 2].tolist() if n % 2 == 0 else []
            for n in range(table.shape[0])]


def _stages(y: np.ndarray, h: float, rate: np.ndarray, coll: list, ther: list) -> np.ndarray:
    """The (order + 1, 3) Radau IIA stage values of a step of length h from y,
    solved order by order: (I + h a_n A) Y_n = y_n 1 + h A F_n(Y_0..Y_{n-1}),
    with F_n's collision and thermostat rows coll[n] and ther[n] over the even
    orders.  The few terms of each order are summed in Python floats, which is
    faster than numpy calls on such short vectors."""
    inv = np.linalg.inv(np.eye(3) + (h * rate)[:, None, None] * _RADAU_A)
    cols = (y[:, None] * inv.sum(axis=2)).T.tolist()  # final at odd n, where F_n = 0
    # inv @ (h A) stays bounded by 1/a_n however large h is
    coupling = (inv @ (h * _RADAU_A)).tolist()
    for n in range(2, y.size, 2):
        cn, tn = coll[n], ther[n]
        f0, f1, f2 = [sum(map(mul, cn, map(mul, c[2 : n - 1 : 2], c[n - 2 : 1 : -2])))
                      + sum(map(mul, tn, c[0 : n - 1 : 2])) for c in cols]
        for c, (a0, a1, a2) in zip(cols, coupling[n]):
            c[n] += a0 * f0 + a1 * f1 + a2 * f2
    return np.array(cols).T


def _rms(x: np.ndarray) -> float:
    """Root mean square, without overflow at any finite entries."""
    return math.hypot(*x.tolist()) / math.sqrt(x.size)


def _error_solve(f: np.ndarray, slope: np.ndarray, lower: list, hg: float,
                 rate: np.ndarray) -> np.ndarray:
    """(I - hg J)^-1 (hg f + slope) by forward substitution over the orders,
    where J has the diagonal -rate and, below it, the rows lower[n] at the even
    orders 2..n-2.  Written with hg / (1 + hg a_n) <= 1/a_n, which stays finite
    however large hg is."""
    denom = 1.0 + hg * rate
    gains = hg / denom
    x = (slope / denom + gains * f).tolist()
    gains = gains.tolist()
    for n in range(4, len(x), 2):
        x[n] += gains[n] * sum(map(mul, lower[n], x[2 : n - 1 : 2]))
    return np.array(x)


def integrate_moments(m0: MomentVector, params: Params, sample_times) -> MomentSeries:
    """Integrate the hierarchy from t = 0 by 3-stage Radau IIA.

    Each step's stages are solved order by order, with no Newton iteration, in
    time scaled by the power of two 2**e just above max(lam, mu), so every rate
    a_n is below 3.  Hairer's embedded estimate of the local error, relative to
    max(1, |m|) and in the root-mean-square over the orders, is kept below
    STEP_TOL by the standard step-size controller; a step that cannot meet it raises
    IntegrationError.  Steps end on every sample time, where moment-matrix
    positivity is checked to HANKEL_TOL.
    """
    times = check_times(sample_times, ())
    top = max(params.lam, params.mu)
    rate_time = top * float(times[-1])
    if not rate_time <= MAX_RATE_TIME:
        raise ValueError(f"max(lam, mu) times the last time, {rate_time:.3g}, exceeds "
                         f"MAX_RATE_TIME = {MAX_RATE_TIME:.3g}")
    e = math.frexp(top)[1]
    scaled = replace(params, lam=math.ldexp(params.lam, -e), mu=math.ldexp(params.mu, -e))
    w, rev, wg = _rhs_tables(m0.order, params.beta)
    lam2, mu = 2.0 * scaled.lam, scaled.mu
    diag = np.diagonal(w)
    rate = lam2 * (1.0 - w[:, 0] - diag) + mu * (1.0 - diag)  # a_n; w[n, 0] = w[n, n]
    rate[0] = 0.0  # m_0 = 1 does not move
    coll, ther = _even_rows(lam2 * w, 2), _even_rows(mu * wg, 0)
    y = m0.m.copy()
    out = np.empty((times.size, y.size))
    tau, h = 0.0, INITIAL_STEP
    accepted = rejected = 0
    reject = False
    f = None  # moment_rhs at y, once y has moved

    for row, target in enumerate(math.ldexp(t, e) for t in times):
        while tau < target:
            if f is None:
                f = moment_rhs(y, scaled)
                lower = _even_rows(2.0 * lam2 * (w * y[rev]) + mu * wg, 2)  # the Jacobian
            last = tau + 1.0001 * h >= target
            step = target - tau if last else h
            stages = _stages(y, step, rate, coll, ther)
            y_new = stages[:, 2]
            hg = step * _GAMMA0
            slope = (stages - y[:, None]) @ _ERROR_WEIGHTS
            scale = STEP_TOL * np.maximum(1.0, np.maximum(np.abs(y), np.abs(y_new)))
            err = _rms(_error_solve(f, slope, lower, hg, rate) / scale)
            # the next step is step / quot, quot in [1/8, 5]; a nan err gives 5
            quot = max(0.125, min(5.0, err**0.25 / SAFETY))
            if err <= 1.0:
                accepted += 1
                tau = target if last else tau + step
                y, f = y_new, None
                h = step / max(quot, 1.0) if reject else step / quot
                reject = False
            else:
                rejected += 1
                h = 0.1 * step if not accepted else step / quot
                reject = True
                if h < 16.0 * _EPS * max(1.0, tau):
                    raise IntegrationError(f"no step above {h:.3g} meets the error test at "
                                           f"t={math.ldexp(tau, -e):g}")
        out[row] = y
        if _hankel_min_eig(y) < -HANKEL_TOL:
            raise IntegrationError(
                f"moment matrix lost positivity at t={times[row]:g} "
                "(increase the order)"
            )
    return MomentSeries(times=times, values=out, accepted=accepted, rejected=rejected)

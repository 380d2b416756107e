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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Params, angular_moment, gaussian_moment, hermite_eigenvalue_s

DEFAULT_ORDER = 8
STEP_ERROR_PER_TIME = 1e-10
HANKEL_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Moment positivity lost during integration (order too small or step too large)."""


@dataclass
class MomentVector:
    """Raw moments m_0..m_order of the one-particle density at one time."""

    m: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.ndim != 1 or self.m.size < 1:
            raise ValueError("moments must be a 1-d array")
        if abs(self.m[0] - 1.0) > 1e-12:
            raise ValueError(f"m_0 must be 1 (mass), got {self.m[0]!r}")

    @property
    def order(self) -> int:
        return self.m.size - 1

    @classmethod
    def gaussian(cls, beta: float) -> "MomentVector":
        """Moments m_0..m_DEFAULT_ORDER of the centred Gaussian of variance 1/beta."""
        return cls(m=np.array([gaussian_moment(k, 1.0 / beta) for k in range(DEFAULT_ORDER + 1)]))


@dataclass
class MomentSeries:
    times: np.ndarray
    values: np.ndarray  # (T, order+1)

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
    g = np.array([gaussian_moment(k, 1.0 / beta) for k in range(order + 1)])
    wg = w * g[rev]
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


def _rk4(f, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_moments(
    m0: MomentVector,
    params: Params,
    horizon: float,
    dt: float = 1e-2,
    sample_times=None,
) -> MomentSeries:
    """Integrate the hierarchy with step-doubling error control.

    Local error (full step vs two half steps) is kept below STEP_ERROR_PER_TIME
    per unit time on every component, relative to max(1, |m|).  Moment-matrix
    positivity is checked at every output time, to HANKEL_TOL.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, 65)
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) < 0) or times[-1] > horizon + 1e-12:
        raise ValueError("sample times must be increasing within [0, horizon]")

    f = lambda y: moment_rhs(y, params)
    y = m0.m.copy()
    t = float(m0.time)
    out = np.empty((times.size, y.size))
    h = dt
    roundoff_floor = 4e-15  # scaled step-doubling differences bottom out here

    for row, target in enumerate(times):
        while True:
            remaining = target - t
            if remaining <= 1e-13 * max(1.0, target):
                t = target
                break
            # stretch the last step instead of leaving a sliver whose
            # rejection would poison the step size
            step = remaining if remaining <= 1.5 * h else h
            stretched = step != h
            while True:
                full = _rk4(f, y, step)
                half = _rk4(f, _rk4(f, y, 0.5 * step), 0.5 * step)
                scale = np.maximum(1.0, np.abs(y))
                err = float(np.max(np.abs(full - half) / scale))
                if err <= max(STEP_ERROR_PER_TIME * step, roundoff_floor) or step < 1e-12:
                    break
                step *= 0.5
                stretched = False
                h = step
            # fifth-order local extrapolation of the doubled step
            y = half + (half - full) / 15.0
            t += step
            if not stretched and err < 0.25 * max(STEP_ERROR_PER_TIME * step, roundoff_floor):
                h = min(2.0 * h, dt * 16.0)
        out[row] = y
        if _hankel_min_eig(y) < -HANKEL_TOL:
            raise IntegrationError(
                f"moment matrix lost positivity at t={target:g} "
                "(increase the order or reduce the step)"
            )
    return MomentSeries(times=times, values=out)

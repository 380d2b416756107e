"""Moment hierarchy of the limiting one-particle kinetic equation.

Integrating v^n against the evolution closes on the raw moments exactly: the
n-th derivative involves only moments of order <= n (lower-triangular system),
so no closure approximation is needed.

    dm_n/dt = 2*lam * ( sum_k C(n,k) A(k, n-k) m_k m_{n-k}  -  m_n )
            +   mu  * ( sum_k C(n,k) A(k, n-k) m_k g_{n-k}  -  m_n )

with A the full-period angular moment and g the Gaussian(0, 1/beta) moments.
A vanishes unless both its orders are even, so an odd moment is driven by no
other: m_n(t) = m_n(0) exp(-(2 lam + mu) t).  The even weights are C(2l, 2i)
A(2i, 2l-2i) = s_2l C(l, i), s_2l = C(2l, l) / 4^l, so in u_l = m_2l / l! and
gamma_l = g_2l / l! the even rows are two Cauchy products, which the solver steps:

    du_l/dt = 2*lam * ( s_2l (u*u)_l  -  u_l )  +  mu * ( s_2l (u*gamma)_l  -  u_l ).

Linearizing about the Gaussian, mode n decays at rate 2*lam*(1 - 2 s_n) + mu*(1 - s_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

import numpy as np

from .core import Params, check_times, gaussian_moments, hermite_eigenvalue_s

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
_ERROR_WEIGHTS = tuple(_GAMMA0 * e / 3.0 for e in (-13.0 - 7.0 * _S6, -13.0 + 7.0 * _S6, -1.0))
# det(x I + A) = x^3 + c1 x^2 + c2 x + c3, from the denominator 1 - 3z/5 + 3z^2/20 - z^3/60
# of the method's stability function (ibid. Sec. IV.5).  By Cayley-Hamilton,
# adj(I + zA) = I + z (c1 I - A) + z^2 adj(A) with adj(A) = c2 I - P, P = c1 A - A^2,
# and adj(A) A = c3 I: _stage_solve's tables u = c1 - A 1, v = adj(A) 1, A and P
_C1, _C2, _C3 = 3.0 / 5.0, 3.0 / 20.0, 1.0 / 60.0
_P = _C1 * _RADAU_A - _RADAU_A @ _RADAU_A
_ROW_TERMS = (*(_C1 - _RADAU_A.sum(axis=1)).tolist(), *(_C2 - _P.sum(axis=1)).tolist())
_A_ENTRIES, _P_ENTRIES = _RADAU_A.ravel().tolist(), _P.ravel().tolist()


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
        bad = np.flatnonzero(~np.isfinite(self.m))
        if bad.size:
            raise ValueError(f"moments must be finite, got m_{bad[0]} = {float(self.m[bad[0]])}")
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
def _even_terms(order: int, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """l!, c_l = l! s_2l and gamma_l = g_2l / l! for l <= order // 2, g the
    Gaussian(0, 1/beta) moments, read-only: with u_l = m_2l / l!, dm_2l/dt =
    2 lam (c_l (u*u)_l - m_2l) + mu (c_l (u*gamma)_l - m_2l).  A bath moment that
    overflows is refused, and gaussian_moments refuses an order past
    MAX_GAUSSIAN_ORDER = 296, so l <= 148 and every l! here is finite."""
    half = order // 2
    g = gaussian_moments(2 * half, 1.0 / beta)[::2]
    if not np.isfinite(g).all():
        raise ValueError(f"the bath moments at beta = {beta!r} overflow at order "
                         f"{2 * int(np.argmin(np.isfinite(g)))}")
    fact = np.array([float(math.factorial(l)) for l in range(half + 1)])
    terms = fact, fact * np.array([hermite_eigenvalue_s(2 * l) for l in range(half + 1)]), g / fact
    for t in terms:
        t.flags.writeable = False
    return terms


def moment_rhs(m: np.ndarray, params: Params) -> np.ndarray:
    """Time derivative of the moment vector; lower-triangular in the order.  The two
    products stay apart: a merged sum would lose the bath term at lam >> mu in the
    m_2 row, where the collision one cancels exactly."""
    m = np.asarray(m, dtype=float)
    fact, weight, gamma = _even_terms(m.size - 1, params.beta)
    lam2, mu = 2.0 * params.lam, params.mu
    even = m[::2]
    u, n = even / fact, even.size
    out = -(lam2 + mu) * m  # the odd rows
    out[::2] = (lam2 * (weight * np.convolve(u, u)[:n] - even)
                + mu * (weight * np.convolve(u, gamma)[:n] - even))
    return out


def linearized_eigenvalue(n: int, params: Params) -> float:
    """Decay rate of the degree-n Hermite mode of the linearized equation, which is
    also a_n in the hierarchy's dm_n/dt = -a_n m_n + F_n(m_0..m_{n-1}), F_n the
    terms in m_k, k < n.  The solver takes its diagonal from here.  It is formed as
    the terms in u_l = m_n / l! of the products give it, 2 lam (1 - s_n - s_n) + mu
    (1 - s_n), from 2 lam s_n (u_0 u_l + u_l u_0) and mu s_n u_l gamma_0."""
    if n < 1:
        raise ValueError("mode index must be >= 1")
    s = hermite_eigenvalue_s(n)
    return 2.0 * params.lam * (1.0 - s - s) + params.mu * (1.0 - s)


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


def _stage_solve(z: float, h: float) -> tuple[tuple, tuple]:
    """The row sums of (I + zA)^-1 and the coupling (I + zA)^-1 hA, A = _RADAU_A,
    the latter flat in row-major order, from the adjugate over the determinant:

        rows_i = (1 + z u_i + z^2 v_i) / d,   coupling = h (A + z P + z^2 c3 I) / d,

    with d = 1 + c1 z + c2 z^2 + c3 z^3.  Written homogeneous in (p, q) = (1, z),
    or (1/z, 1) past z = 1, so no power of z overflows; the coupling stays bounded
    by 1/a_n however large z = h a_n is.  Unrolled, since it runs once per even
    order and step."""
    p = 1.0 / max(z, 1.0)
    q = min(z, 1.0)
    pp, pq, qq = p * p, p * q, q * q
    s = p / (p * (pp + _C1 * pq + _C2 * qq) + _C3 * q * qq)
    g, d = h * s, _C3 * qq
    u0, u1, u2, v0, v1, v2 = _ROW_TERMS
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = _A_ENTRIES
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = _P_ENTRIES
    return ((s * (pp + pq * u0 + qq * v0), s * (pp + pq * u1 + qq * v1),
             s * (pp + pq * u2 + qq * v2)),
            (g * (pp * a00 + pq * b00 + d), g * (pp * a01 + pq * b01), g * (pp * a02 + pq * b02),
             g * (pp * a10 + pq * b10), g * (pp * a11 + pq * b11 + d), g * (pp * a12 + pq * b12),
             g * (pp * a20 + pq * b20), g * (pp * a21 + pq * b21), g * (pp * a22 + pq * b22 + d)))


def _stages(m_0: float, y: list, h: float, lam2: float, orders: list) -> tuple:
    """The three Radau IIA stage vectors, each over the even orders 2l = 2, 4, .., of
    a step of length h from y, solved order by order: (I + h a_l A) Y_l = y_l 1 +
    h A F_l, orders[l - 1] = (a_l, c_l, l!, mu gamma_l).  With Y_0 = m_0 and U_i =
    Y_i / i!, F_l = c_l sum_{i<l} U_i (mu gamma_{l-i} + lam2 U_{l-i}) less the
    collision term at i = 0, part of a_l.  Summed in Python floats, which is faster
    than numpy calls on such short vectors."""
    # per stage, U_1, .., U_{l-1} and z_{l-1}, .., z_1, z_j = mu gamma_j + lam2 U_j
    up0, up1, up2, down0, down1, down2, out0, out1, out2 = ([] for _ in range(9))
    for (a, c, k, g), yn in zip(orders, y):
        (r0, r1, r2), (a00, a01, a02, a10, a11, a12, a20, a21, a22) = _stage_solve(h * a, h)
        b = m_0 * g  # the i = 0 term, the bath's alone
        f0 = c * (b + sum(map(mul, up0, down0)))
        f1 = c * (b + sum(map(mul, up1, down1)))
        f2 = c * (b + sum(map(mul, up2, down2)))
        v0 = yn * r0 + (a00 * f0 + a01 * f1 + a02 * f2)
        v1 = yn * r1 + (a10 * f0 + a11 * f1 + a12 * f2)
        v2 = yn * r2 + (a20 * f0 + a21 * f1 + a22 * f2)
        out0.append(v0)
        out1.append(v1)
        out2.append(v2)
        u0, u1, u2 = v0 / k, v1 / k, v2 / k
        up0.append(u0)
        up1.append(u1)
        up2.append(u2)
        down0.insert(0, g + lam2 * u0)
        down1.insert(0, g + lam2 * u1)
        down2.insert(0, g + lam2 * u2)
    return out0, out1, out2


def _rms(x: list, size: int) -> float:
    """Root mean square over `size` entries, those past x zero, without overflow at
    any finite entries."""
    return math.hypot(*x) / math.sqrt(size)


def _error_solve(f: list, slope: list, d: list, hg: float, orders: list) -> list:
    """(I - hg J)^-1 (hg f + slope) by forward substitution over the even orders
    2l = 2, 4, .., where J has the diagonal -a_l and, below it, J[l, i] = c_l
    d_{l-i} / i!, the derivative of F_l in Y_i, with d = (d_1, d_2, ..) and (a_l,
    c_l, l!) from orders[l - 1].  Written with hg / (1 + hg a_l) <= 1/a_l, which
    stays finite however large hg is."""
    x, scaled, down = [], [], []  # x_i / i! and d_{l-1}, .., d_1
    for fn, s, (a, c, k, _), dn in zip(f, slope, orders, d):
        q = 1.0 + hg * a
        xn = s / q + hg / q * (fn + c * sum(map(mul, scaled, down)))
        x.append(xn)
        scaled.append(xn / k)
        down.insert(0, dn)
    return x


def integrate_moments(m0: MomentVector, params: Params, sample_times) -> MomentSeries:
    """Integrate the hierarchy from t = 0: the odd orders in closed form, the even
    orders by 3-stage Radau IIA.

    F_n vanishes at odd n, where every a_n is 2 lam + mu, so each odd moment is
    m_n(0) exp(-(2 lam + mu) t) exactly; m_0 does not move.  The other even orders
    are stepped, each step's stages solved order by order in closed form, with no
    Newton iteration, in time scaled by the power of two 2**e just above max(lam,
    mu), so every rate a_n is below 3 and every product a_n t is finite.  A step
    runs on Python floats, over the products' terms from _even_terms; numpy forms
    only moment_rhs, once per accepted step.  Hairer's embedded estimate of the local
    error, relative to max(1, |m|) and in the root-mean-square over the orders
    0..order, where the exact ones add none, is kept below STEP_TOL by the standard
    step-size controller; a step that cannot meet it raises IntegrationError.  Steps
    end on every sample time, where moment-matrix positivity is checked to
    HANKEL_TOL.  A bath moment that overflows raises ValueError.
    """
    times = check_times(sample_times)
    top = max(params.lam, params.mu)
    rate_time = top * float(times[-1])
    if not rate_time <= MAX_RATE_TIME:
        raise ValueError(f"max(lam, mu) times the last time, {rate_time:.3g}, exceeds "
                         f"MAX_RATE_TIME = {MAX_RATE_TIME:.3g}")
    e = math.frexp(top)[1]
    scaled = replace(params, lam=math.ldexp(params.lam, -e), mu=math.ldexp(params.mu, -e))
    fact, weight, gamma = _even_terms(m0.order, params.beta)
    lam2, mu = 2.0 * scaled.lam, scaled.mu
    rate = [linearized_eigenvalue(n, scaled) for n in range(2, m0.order + 1, 2)]
    odd_rate = linearized_eigenvalue(1, scaled)
    orders = list(zip(rate, weight[1:].tolist(), fact[1:].tolist(), (mu * gamma[1:]).tolist()))
    e0, e1, e2 = _ERROR_WEIGHTS
    tol = STEP_TOL
    m = m0.m.copy()  # the full vector at tau, the odd orders in closed form
    m_0, odd = float(m[0]), m[1::2].copy()
    y = m[2::2].tolist()  # the stepped orders; orders 0 and 1 leave nothing to step
    out = np.empty((times.size, m.size))
    tau, h = 0.0, INITIAL_STEP
    accepted = rejected = 0
    reject = False
    f = None  # moment_rhs at y, once y has moved

    for row, target in enumerate(math.ldexp(t, e) for t in times):
        while y and tau < target:
            if f is None:
                m[2::2], m[1::2] = y, odd * math.exp(-odd_rate * tau)
                f = moment_rhs(m, scaled)[2::2].tolist()
                # the Jacobian's terms d_j = mu gamma_j + 4 lam y_j / j!
                d = [g + 2.0 * lam2 * yn / k for (_, _, k, g), yn in zip(orders, y)]
            last = tau + 1.0001 * h >= target
            step = target - tau if last else h
            stages = _stages(m_0, y, step, lam2, orders)
            y_new = stages[2]
            slope = [e0 * (s0 - yn) + e1 * (s1 - yn) + e2 * (s2 - yn)
                     for yn, s0, s1, s2 in zip(y, *stages)]
            x = _error_solve(f, slope, d, step * _GAMMA0, orders)
            # over all the orders: m_0 and the odd orders, exact, add no error
            err = _rms([xn / (tol * max(1.0, abs(yn), abs(zn)))
                        for xn, yn, zn in zip(x, y, y_new)], m.size)
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
        out[row, 0], out[row, 2::2], out[row, 1::2] = m_0, y, odd * math.exp(-odd_rate * target)
        if _hankel_min_eig(out[row]) < -HANKEL_TOL:
            raise IntegrationError(
                f"moment matrix lost positivity at t={times[row]:g} "
                "(increase the order)"
            )
    return MomentSeries(times=times, values=out, accepted=accepted, rejected=rejected)

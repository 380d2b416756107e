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
from operator import add, mul

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
    """Decay rate of the degree-n Hermite mode of the linearized equation, which is
    also a_n in the hierarchy's dm_n/dt = -a_n m_n + F_n(m_0..m_{n-1}), F_n the
    terms in m_k, k < n.  It is formed as the mixing weights give it, 2 lam (1 -
    w[n, 0] - w[n, n]) + mu (1 - w[n, n]) with w[n, 0] = w[n, n] = s_n, so the
    solver's diagonal is this value to the bit."""
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


def _even_rows(table: np.ndarray, first: int) -> list:
    """Row j of `table`, which holds the even orders n = 2j at the columns first,
    first + 2, .., as the list of its entries below the diagonal, at k <= n - 2.
    The odd angular moments vanish, so w[n, k] is zero unless k and n - k are both
    even: F_n vanishes at odd n and takes even moments alone."""
    skip = first // 2  # rows n = 2j < first have no such entries
    return [[]] * skip + [row[:j] for j, row in enumerate(table.tolist()[skip:])]


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


def _stages(y: list, h: float, rate: list, coll: list, ther: list) -> tuple:
    """The three Radau IIA stage vectors, each over the orders, of a step of length
    h from y, solved order by order: (I + h a_n A) Y_n = y_n 1 + h A F_n(Y_0..Y_{n-1}).
    F_n vanishes at odd n, where every a_n is 2 lam + mu, so one stage solve serves
    all odd orders.  At even n, F_n is the sum over the even k < n of
    Y_k (ther[n/2][k/2] + coll[n/2][k/2] Y_{n-k}).  Everything is summed in Python
    floats, which is faster than numpy calls on such short vectors."""
    size = len(y)
    c0, c1, c2 = [0.0] * size, [0.0] * size, [0.0] * size
    if size > 1:
        (r0, r1, r2), _ = _stage_solve(h * rate[1], h)
        odd = y[1::2]
        c0[1::2] = [r0 * yn for yn in odd]
        c1[1::2] = [r1 * yn for yn in odd]
        c2[1::2] = [r2 * yn for yn in odd]
    # per stage, Y_0, Y_2, .., Y_{n-2} and 0, Y_{n-2}, .., Y_2, Y_0: zipped, entry k/2
    # pairs Y_k with Y_{n-k}, and with 0 at k = 0, whose term is part of a_n
    up0, up1, up2 = [y[0]], [y[0]], [y[0]]  # m_0 does not move
    down0, down1, down2 = [0.0, y[0]], [0.0, y[0]], [0.0, y[0]]
    for n in range(2, size, 2):
        (r0, r1, r2), (a00, a01, a02, a10, a11, a12, a20, a21, a22) = _stage_solve(h * rate[n], h)
        cn, tn = coll[n // 2], ther[n // 2]
        if n == 2:  # F_2 = Y_0 ther[1][0] = y_0 mu wg[2, 0] at every stage
            f0 = f1 = f2 = y[0] * tn[0]
        else:
            f0 = sum(map(mul, up0, map(add, tn, map(mul, cn, down0))))
            f1 = sum(map(mul, up1, map(add, tn, map(mul, cn, down1))))
            f2 = sum(map(mul, up2, map(add, tn, map(mul, cn, down2))))
        yn = y[n]
        v0 = yn * r0 + (a00 * f0 + a01 * f1 + a02 * f2)
        v1 = yn * r1 + (a10 * f0 + a11 * f1 + a12 * f2)
        v2 = yn * r2 + (a20 * f0 + a21 * f1 + a22 * f2)
        up0.append(v0)
        up1.append(v1)
        up2.append(v2)
        down0.insert(1, v0)
        down1.insert(1, v1)
        down2.insert(1, v2)
    c0[0::2], c1[0::2], c2[0::2] = up0, up1, up2
    return c0, c1, c2


def _rms(x: list) -> float:
    """Root mean square, without overflow at any finite entries."""
    return math.hypot(*x) / math.sqrt(len(x))


def _error_solve(f: list, slope: list, lower: list, hg: float, rate: list) -> list:
    """(I - hg J)^-1 (hg f + slope) by forward substitution over the orders,
    where J has the diagonal -rate and, below it, the rows lower[n/2] at the even
    orders 2..n-2.  Written with hg / (1 + hg a_n) <= 1/a_n, which stays finite
    however large hg is."""
    denom = [1.0 + hg * a for a in rate]
    x = [s / d + hg / d * fn for s, fn, d in zip(slope, f, denom)]
    done = x[2:3]  # x at the even orders 2..n-2
    for n in range(4, len(x), 2):
        x[n] += hg / denom[n] * sum(map(mul, lower[n // 2], done))
        done.append(x[n])
    return x


def integrate_moments(m0: MomentVector, params: Params, sample_times) -> MomentSeries:
    """Integrate the hierarchy from t = 0 by 3-stage Radau IIA.

    Each step's stages are solved order by order in closed form, with no Newton
    iteration, in time scaled by the power of two 2**e just above max(lam, mu),
    so every rate a_n is below 3.  A step runs on Python floats; numpy forms only
    moment_rhs and the Jacobian rows, once per accepted step.  Hairer's embedded
    estimate of the local error, relative to max(1, |m|) and in the root-mean-square
    over the orders, is kept below STEP_TOL by the standard step-size controller; a
    step that cannot meet it raises IntegrationError.  Steps end on every sample
    time, where moment-matrix positivity is checked to HANKEL_TOL.
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
    # m_0 = 1 does not move
    rate = [0.0] + [linearized_eigenvalue(n, scaled) for n in range(1, m0.order + 1)]
    coll, ther = _even_rows((lam2 * w)[::2, ::2], 0), _even_rows((mu * wg)[::2, ::2], 0)
    # the Jacobian's even rows at the even columns k >= 2: 2 lam2 w[n, k] m_{n-k} + mu wg[n, k]
    # (contiguous: numpy indexes and multiplies strided views several times slower)
    jac_w, jac_rev, jac_wg = (t[::2, 2::2].copy() for t in (w, rev, mu * wg))
    e0, e1, e2 = _ERROR_WEIGHTS
    tol = STEP_TOL
    y = m0.m.tolist()
    out = np.empty((times.size, len(y)))
    tau, h = 0.0, INITIAL_STEP
    accepted = rejected = 0
    reject = False
    f = None  # moment_rhs at y, once y has moved

    for row, target in enumerate(math.ldexp(t, e) for t in times):
        while tau < target:
            if f is None:
                m = np.array(y)
                f = moment_rhs(m, scaled).tolist()
                lower = _even_rows(2.0 * lam2 * (jac_w * m[jac_rev]) + jac_wg, 2)
            last = tau + 1.0001 * h >= target
            step = target - tau if last else h
            stages = _stages(y, step, rate, coll, ther)
            y_new = stages[2]
            slope = [e0 * (s0 - yn) + e1 * (s1 - yn) + e2 * (s2 - yn)
                     for yn, s0, s1, s2 in zip(y, *stages)]
            x = _error_solve(f, slope, lower, step * _GAMMA0, rate)
            err = _rms([xn / (tol * max(1.0, abs(yn), abs(zn)))
                        for xn, yn, zn in zip(x, y, y_new)])
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
        if _hankel_min_eig(out[row]) < -HANKEL_TOL:
            raise IntegrationError(
                f"moment matrix lost positivity at t={times[row]:g} "
                "(increase the order)"
            )
    return MomentSeries(times=times, values=out, accepted=accepted, rejected=rejected)

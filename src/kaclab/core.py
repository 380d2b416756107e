"""Model parameters, the rule for sample times and the exact moment functions
shared by every other module.

The angular averages, sphere moments and the collision-gap constant are all
small factorial formulas.  They are evaluated in exact rational arithmetic
(`fractions.Fraction`) and converted to float only at the API boundary, so the
spectral assembly downstream never sees cancellation error.

All rate-like quantities carry units of 1/time; velocities are in units where
the equilibrium variance is 1/beta.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Params:
    """Model constants: particle count N, collision rate, thermostat rate, inverse temperature."""

    n_particles: int
    lam: float = 1.0
    mu: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        n = self.n_particles
        if (isinstance(n, bool) or not isinstance(n, numbers.Real) or not math.isfinite(n)
                or int(n) != n or n < 1):
            raise ValueError(f"n_particles must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "n_particles", int(n))
        for name in ("lam", "mu", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def check_times(times) -> np.ndarray:
    """The times as an array, once they hold at least one time, each finite and
    >= 0, and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if (times.size == 0 or not np.isfinite(times).all() or times.min() < 0
            or np.any(np.diff(times) <= 0)):
        raise ValueError("need at least one time, each finite and >= 0, and strictly "
                         "increasing times")
    return times


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def hermite_eigenvalue_s_exact(alpha: int) -> Fraction:
    """Angular average of cos^alpha over a full period, as an exact rational:
    `angular_moment_exact(alpha, 0)`, zero for odd alpha and (2a)!/(2^(2a) a!^2)
    for alpha = 2a.  Strictly decreasing along even orders and -> 0."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return angular_moment_exact(alpha, 0)


def hermite_eigenvalue_s(alpha: int) -> float:
    return float(hermite_eigenvalue_s_exact(alpha))


@lru_cache(maxsize=None)
def angular_moment_exact(p: int, q: int) -> Fraction:
    """Full-period average of cos^p * sin^q: zero unless p and q are both even,
    else (p-1)!!(q-1)!!/(p+q)!!."""
    if p < 0 or q < 0:
        raise ValueError(f"powers must be >= 0, got ({p}, {q})")
    if p % 2 or q % 2:
        return Fraction(0)
    return Fraction(double_factorial(p - 1) * double_factorial(q - 1), double_factorial(p + q))


def kac_gap_Lambda_exact(n_particles: int) -> Fraction:
    """Gap of the pair-collision operator off the radial subspace: (N+2)/(2(N-1))."""
    if n_particles < 2:
        raise ValueError(f"pair collisions need N >= 2, got {n_particles}")
    return Fraction(n_particles + 2, 2 * (n_particles - 1))


def kac_gap_Lambda(n_particles: int) -> float:
    """Lambda_N rounded once from the exact rational."""
    return float(kac_gap_Lambda_exact(n_particles))


def sphere_moment_Gamma_exact(alpha, n_particles: int | None = None) -> Fraction:
    """Moment of v_1^(2a_1)...v_N^(2a_N) over the unit sphere with normalized
    surface measure: prod (2a_i - 1)!! / [N (N+2) ... (N + 2|a| - 2)].

    N is len(alpha), or `n_particles` with alpha zero-padded to that length;
    zero entries contribute (-1)!! = 1, so they need not be listed."""
    entries = tuple(int(x) for x in alpha)
    n = len(entries) if n_particles is None else n_particles
    if n < 1:
        raise ValueError("multi-index must have at least one entry")
    if len(entries) > n:
        raise ValueError("index longer than particle count")
    if any(x < 0 for x in entries):
        raise ValueError(f"entries must be nonnegative, got {entries}")
    weight = sum(entries)
    num = 1
    for a in entries:
        num *= double_factorial(2 * a - 1)
    den = 1
    for k in range(weight):
        den *= n + 2 * k
    return Fraction(num, den)


def multinomial(total: int, parts) -> int:
    """total! / prod(parts_i!); parts must sum to total."""
    parts = tuple(parts)
    if sum(parts) != total:
        raise ValueError(f"parts {parts} do not sum to {total}")
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All weak compositions of `total` into `parts` slots, descending lexicographic."""
    if parts < 1:
        raise ValueError("need at least one slot")

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for v in range(remaining, -1, -1):
            for rest in rec(remaining - v, slots - 1):
                yield (v,) + rest

    return tuple(rec(total, parts))


def partitions(total: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of `total` into at most `max_parts` parts, nonzero parts only
    (no padding), descending entries, descending lexicographic order."""
    if max_parts < 1:
        raise ValueError("need at least one slot")

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for v in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - v, v, slots - 1):
                yield (v,) + rest

    return tuple(rec(total, total, max_parts))


def orbit_size(index, n_particles: int) -> int:
    """Number of distinct permutations of `index` zero-padded to length n_particles.

    N!/(m_0! prod_v m_v!) with m_0 = N - k zeros and k nonzero entries equals the
    falling factorial N!/(N-k)! over prod_v m_v!, the product over nonzero values."""
    entries = tuple(int(x) for x in index)
    if len(entries) > n_particles:
        raise ValueError("index longer than particle count")
    counts: dict[int, int] = {}
    for v in entries:
        if v:
            counts[v] = counts.get(v, 0) + 1
    out = math.perm(n_particles, sum(counts.values()))
    for c in counts.values():
        out //= math.factorial(c)
    return out


# the largest order whose exact coefficients in gaussian_moments all fit in a float;
# at order 297 the one at j = 280 passes 2**1024, and every moment would be inf
MAX_GAUSSIAN_ORDER = 296


def gaussian_moments(order: int, variance: float, mean: float = 0.0) -> np.ndarray:
    """Raw moments m_0..m_order of a normal distribution, for order in [0,
    MAX_GAUSSIAN_ORDER]; inf for each moment whose float computation overflows.
    A power of the variance below the normal range is taken as two factors, so a
    term that is itself a normal float keeps its digits."""
    if not 0 <= order <= MAX_GAUSSIAN_ORDER:  # before the O(order^2) loop
        raise ValueError(f"the Gaussian moments need an order in [0, {MAX_GAUSSIAN_ORDER}], "
                         f"where every exact coefficient fits in a float, got {order}")
    out = np.empty(order + 1)
    for k in range(order + 1):
        m, c = 0.0, 1  # c = C(k, j) (j - 1)!! = k! / ((k - j)! j!!), an exact integer
        try:
            for j in range(0, k + 1, 2):
                power = variance ** (j // 2)
                if power < 2.0**-1022:  # the smallest normal float
                    term = c * variance ** (j // 4) * variance ** (j // 2 - j // 4)
                else:
                    term = c * power
                m += term * mean ** (k - j)
                c = c * (k - j) * (k - j - 1) // (j + 2)
        except OverflowError:
            m = math.inf
        out[k] = m if math.isfinite(m) else math.inf
    return out

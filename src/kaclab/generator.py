"""Assembly of the thermostat + collision generator on even Hermite sectors.

The generator acts on mean-zero functions of the N velocities; on the sector
of degree-2l products of (monic, probabilists') Hermite polynomials it is a
finite symmetric matrix.  Three operators are assembled:

  L_T  -- thermostat sum, diagonal with entries sum_i (1 - s_{2 alpha_i});
  L_K  -- pair-collision operator N(I - Q), whose kernel on each sector is the
          single radialized polynomial of that degree;
  L_R  -- Lambda_N (I - B) with B the rank-one projection onto that radial
          direction, the comparison operator that yields closed-form bounds.

The collision operator is expanded on monomials with exact rational
coefficients and transferred verbatim to the Hermite basis (the transfer is an
identity of coefficients for any operator preserving homogeneous even degree).
Matrices are expressed in the orthonormalized basis, optionally reduced to the
permutation-symmetric subspace, and stay symmetric to ~1e-15.

On the full basis, indexed by compositions of l into N slots, Q is expanded
over all N(N-1)/2 pairs (`apply_Q_monomial`) and B over all compositions; this
is the oracle.  A symmetric sector is indexed by partitions of l, each given by
its nonzero parts p (k <= l of them; the N - k zeros are implied).  Its pairs
are counted by type: the at most 6 pairs among the nonzero slots, N - k pairs
of each nonzero slot with a zero one, and C(N - k, 2) zero-zero pairs that
leave p unchanged.  B's column on partition q is Gamma(p) times
multinomial(l, q) times the exact orbit count of q.  Both bases share one
assembly loop, the full basis with orbit size 1.  It forms each entry's
rational part scale*(delta - coefficient) exactly (scale N for L_K, the exact
Lambda_N for L_R) and rounds it to float once, so the diagonal is correctly
rounded from exact at any N, and the symmetric cost does not depend on N.

The first spectral gap is mu/2 with eigenfunction sum_i (v_i^2 - 1/beta); the
second gap is the lower root of an explicit quadratic.  Both are recomputed
here by independent routes and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (
    Params,
    angular_moment_exact,
    compositions,
    hermite_eigenvalue_s_exact,
    kac_gap_Lambda,
    kac_gap_Lambda_exact,
    multinomial,
    orbit_size,
    partitions,
    sphere_moment_Gamma_exact,
)

AGREEMENT_TOL = 1e-10


class AssemblyError(RuntimeError):
    """Cross-route disagreement or a malformed sector matrix: an assembly bug."""


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the even sector of degree 2l.

    `indices` lists the half-exponents alpha (|alpha| = l): all weak
    compositions of length N for the full sector; for the permutation-symmetric
    one, the partitions of l into at most N parts, each as its nonzero parts
    only.  Either way a sector matrix entry is scale*(delta - coefficient),
    formed exactly and rounded to float once, times its float normalization.
    """

    n_particles: int
    level: int
    indices: tuple[tuple[int, ...], ...]
    symmetric: bool

    @property
    def dim(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    basis: SectorBasis
    entries: np.ndarray
    operator_tag: str

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


def sector_basis(n_particles: int, level: int, symmetric: bool = False) -> SectorBasis:
    """Basis of the degree-2*level sector for N particles."""
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if level < 0:
        raise ValueError("level must be >= 0")
    idx = partitions(level, n_particles) if symmetric else compositions(level, n_particles)
    return SectorBasis(
        n_particles=n_particles,
        level=level,
        indices=idx,
        symmetric=symmetric,
    )


def _norm2(alpha: tuple[int, ...]) -> int:
    # squared Hermite norm of the monic product: prod (2 a_i)!
    out = 1
    for a in alpha:
        out *= math.factorial(2 * a)
    return out


@lru_cache(maxsize=None)
def _pair_rotation_avg(ai: int, aj: int) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """Average over the rotation angle of x^(2ai) y^(2aj) composed with the
    pair rotation (x, y) -> (x cos + y sin, -x sin + y cos), expanded in even
    monomials {(bi, bj): coefficient of x^(2bi) y^(2bj)}."""
    acc: dict[tuple[int, int], Fraction] = {}
    for r in range(2 * ai + 1):
        for t in range(2 * aj + 1):
            if (r + t) % 2:
                continue
            ang = angular_moment_exact(r + 2 * aj - t, 2 * ai - r + t)
            if not ang:
                continue
            c = math.comb(2 * ai, r) * math.comb(2 * aj, t) * ang
            if t % 2:
                c = -c
            key = ((r + t) // 2, (2 * ai + 2 * aj - r - t) // 2)
            acc[key] = acc.get(key, Fraction(0)) + c
    return tuple(sorted(acc.items()))


def apply_Q_monomial(exponents) -> dict[tuple[int, ...], Fraction]:
    """Expand the pair-collision average of the monomial v^exponents.

    `exponents` is the raw exponent tuple (all entries even); the result maps
    even exponent tuples of the same total degree to exact coefficients.
    """
    e = tuple(int(x) for x in exponents)
    if any(x < 0 for x in e):
        raise ValueError(f"exponents must be nonnegative, got {e}")
    if any(x % 2 for x in e):
        raise ValueError(f"only even monomials are handled, got exponents {e}")
    n = len(e)
    if n < 2:
        raise ValueError("pair collisions need at least two variables")
    alpha = tuple(x // 2 for x in e)

    weight = Fraction(1, math.comb(n, 2))
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            for (bi, bj), c in _pair_rotation_avg(alpha[i], alpha[j]):
                b = list(alpha)
                b[i], b[j] = bi, bj
                key = tuple(2 * x for x in b)
                acc[key] = acc.get(key, Fraction(0)) + weight * c
    return acc


def _q_columns(alpha: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    # half-exponent view of apply_Q_monomial
    raw = apply_Q_monomial(tuple(2 * x for x in alpha))
    return {tuple(x // 2 for x in k): v for k, v in raw.items()}


def _q_columns_symmetric(p: tuple[int, ...], n: int) -> dict[tuple[int, ...], Fraction]:
    """Q on the representative monomial with nonzero half-exponents p, its
    coefficients summed over each orbit of results and keyed by partition
    (nonzero parts): each pair type once, weighted by its number of pairs."""
    k = len(p)
    pairs = [(p[i], p[j], p[:i] + p[i + 1:j] + p[j + 1:], 1)
             for i in range(k - 1) for j in range(i + 1, k)]
    pairs += [(p[i], 0, p[:i] + p[i + 1:], n - k) for i in range(k)]
    pairs.append((0, 0, p, math.comb(n - k, 2)))
    weight = Fraction(1, math.comb(n, 2))
    acc: dict[tuple[int, ...], Fraction] = {}
    for ai, aj, rest, count in pairs:
        if not count:
            continue
        for (bi, bj), c in _pair_rotation_avg(ai, aj):
            q = tuple(sorted((x for x in rest + (bi, bj) if x), reverse=True))
            acc[q] = acc.get(q, Fraction(0)) + weight * count * c
    return acc


def _assemble(basis: SectorBasis, columns, scale: int | Fraction, subtract_from_identity: bool,
              tag: str) -> SectorMatrix:
    """Matrix of scale*(I - A) (or scale*A) in the orthonormalized Hermite basis,
    `columns` giving the exact monomial expansion of A per basis index
    (index -> {index: coefficient}, summed over each orbit on a symmetric
    basis) and `scale` an exact rational.  Each entry's rational part is
    formed exactly and rounded once."""
    dim = basis.dim
    n = basis.n_particles
    idx = basis.indices
    pos = {a: k for k, a in enumerate(idx)}
    orb = {a: orbit_size(a, n) if basis.symmetric else 1 for a in idx}
    n2 = {a: _norm2(a) for a in idx}
    mat = np.zeros((dim, dim))
    for col, a in enumerate(idx):
        exact = columns(a)
        if subtract_from_identity:
            exact = {b: -c for b, c in exact.items()}
            exact[a] = 1 + exact.get(a, 0)
        for b, c in exact.items():
            ratio = Fraction(orb[a] * n2[b], orb[b] * n2[a])
            mat[pos[b], col] = float(scale * c) * math.sqrt(float(ratio))
    asym = float(np.max(np.abs(mat - mat.T))) if dim else 0.0
    if not asym <= 1e-12 * max(1.0, float(np.max(np.abs(mat))) if dim else 1.0):
        raise AssemblyError(f"{tag} sector matrix asymmetric by {asym:.3e}")
    return SectorMatrix(basis=basis, entries=mat, operator_tag=tag)


def build_LT(basis: SectorBasis) -> SectorMatrix:
    """Thermostat sum: diagonal with sigma_{2 alpha} = sum_i (1 - s_{2 alpha_i})."""
    # a zero entry adds 1 - s_0 = 0 exactly
    diag = [
        float(sum(1 - hermite_eigenvalue_s_exact(2 * x) for x in a))
        for a in basis.indices
    ]
    return SectorMatrix(basis=basis, entries=np.diag(diag), operator_tag="L_T")


def build_LK(basis: SectorBasis) -> SectorMatrix:
    """Pair-collision operator N(I - Q) on the sector."""
    if basis.n_particles < 2:
        raise ValueError("pair collisions need N >= 2")
    n = basis.n_particles
    return _assemble(
        basis,
        (lambda p: _q_columns_symmetric(p, n)) if basis.symmetric else _q_columns,
        scale=n,
        subtract_from_identity=True,
        tag="L_K",
    )


def _radial_columns(basis: SectorBasis):
    """The radial projection on monomials, B[v^(2 alpha)] = Gamma(alpha) r^(2l), as
    `_assemble`'s columns: r^(2l) = sum_q multinomial(l, q) v^(2q) over the
    compositions q, summed over each orbit on a symmetric basis (orbit(q) equal
    terms) and with orbit weight 1 on the full basis."""
    level, n = basis.level, basis.n_particles
    orbit = {q: orbit_size(q, n) if basis.symmetric else 1 for q in basis.indices}

    def columns(alpha):
        gamma = sphere_moment_Gamma_exact(alpha, n)
        return {q: gamma * multinomial(level, q) * orbit[q] for q in basis.indices}

    return columns


def build_LR(basis: SectorBasis) -> SectorMatrix:
    """Comparison operator Lambda_N (I - B), B the radial rank-one projection."""
    if basis.n_particles < 2:
        raise ValueError("pair collisions need N >= 2")
    return _assemble(
        basis,
        _radial_columns(basis),
        scale=kac_gap_Lambda_exact(basis.n_particles),
        subtract_from_identity=True,
        tag="L_R",
    )


def build_B(basis: SectorBasis) -> SectorMatrix:
    """The radial projection B itself (for rank / idempotency checks)."""
    return _assemble(
        basis,
        _radial_columns(basis),
        scale=1,
        subtract_from_identity=False,
        tag="B",
    )


def build_generator(basis: SectorBasis, params: Params) -> SectorMatrix:
    """mu*L_T + lam*L_K on the sector, once no entry overflows."""
    with np.errstate(over="ignore"):
        entries = params.mu * build_LT(basis).entries + params.lam * build_LK(basis).entries
    if np.isinf(entries).any():
        raise ValueError(f"lambda = {params.lam:.3g}, mu = {params.mu:.3g}: the rates overflow "
                         f"the degree-{2 * basis.level} sector's entries")
    return SectorMatrix(basis=basis, entries=entries, operator_tag="full")


def radial_direction(basis: SectorBasis) -> np.ndarray:
    """Unit coefficient vector of the degree-2l radialized polynomial (the
    Hermite transfer of (sum v_i^2)^l) in the basis' orthonormal coordinates."""
    level = basis.level
    vec = np.zeros(basis.dim)
    for k, a in enumerate(basis.indices):
        coef = float(multinomial(level, a)) * math.sqrt(float(_norm2(a)))
        if basis.symmetric:
            coef *= math.sqrt(orbit_size(a, basis.n_particles))
        vec[k] = coef
    return vec / np.linalg.norm(vec)


def energy_square_direction(basis: SectorBasis) -> np.ndarray:
    """Unit coefficient vector of sum_j v_j^4 - 3/(N+2) (sum_j v_j^2)^2 on the
    degree-4 sector: the collision operator's nonzero eigendirection there."""
    if basis.level != 2:
        raise ValueError("defined on the degree-4 sector only")
    n = basis.n_particles
    mono = {(2,): 1.0 - 3.0 / (n + 2), (1, 1): -6.0 / (n + 2)}
    vec = np.zeros(basis.dim)
    for k, a in enumerate(basis.indices):
        key = tuple(sorted((x for x in a if x), reverse=True))
        if key not in mono:
            continue
        coef = mono[key] * math.sqrt(float(_norm2(a)))
        if basis.symmetric:
            coef *= math.sqrt(orbit_size(a, n))
        vec[k] = coef
    return vec / np.linalg.norm(vec)


def _check_tol(*entries: np.ndarray) -> float:
    # eigenvalues carry roundoff relative to the entries: AGREEMENT_TOL times
    # the largest entry; every check is written `not x <= tol` so a NaN fails.
    # Below the normal range roundoff is absolute, half a step of 2**-1074 per
    # operation, so the tolerance is at least 64 such steps
    return max(AGREEMENT_TOL * max(float(np.max(np.abs(e))) for e in entries), 2.0**-1068)


def require_isolated_gap(sector_min: float, params: Params, tol: float) -> None:
    """Refuse rates at which `sector_min`, the degree-4 sector's smallest eigenvalue,
    lies within the gap checks' resolution `tol` above the gap mu/2.  It lies at
    least mu/8 above it, so only a small mu/lambda, or a subnormal mu, brings it
    there: an input out of range, not an assembly fault."""
    margin = sector_min - params.mu / 2.0
    if not margin > tol:
        ratio = params.mu / params.lam if params.lam else math.inf
        raise ValueError(f"mu/lambda = {ratio:.3g}: the degree-4 sector lies {margin:.3g} above "
                         f"the gap mu/2, not above the gap checks' resolution {tol:.3g}")


def first_gap(params: Params) -> float:
    """Smallest nonzero eigenvalue of the generator: mu/2, eigenfunction
    sum_i (v_i^2 - 1/beta).  Verified against a fresh eigensolve of the
    assembled operator on the symmetric degree-2 and degree-4 sectors, to
    AGREEMENT_TOL times the largest |entry| of those sectors; rates at which the
    degree-4 sector cannot be told from the gap raise ValueError."""
    n = params.n_particles
    if n < 2:
        raise ValueError("gap computation needs N >= 2")
    closed = params.mu / 2.0
    g2 = build_generator(sector_basis(n, 1, symmetric=True), params)
    g4 = build_generator(sector_basis(n, 2, symmetric=True), params)
    ev2 = g2.eigenvalues()
    ev4 = g4.eigenvalues()
    allev = np.sort(np.concatenate([ev2, ev4]))
    tol = _check_tol(g2.entries, g4.entries)
    if params.mu > 0:
        if not abs(allev[0] - closed) <= tol:
            raise AssemblyError(
                f"eigensolve gap {allev[0]!r} disagrees with closed form {closed!r}"
            )
        require_isolated_gap(float(ev4.min()), params, tol)
    else:
        # thermostat off: the radial kernel is degenerate across sectors
        if not (abs(allev[0]) <= tol and abs(allev[1]) <= tol):
            raise AssemblyError("expected a degenerate kernel at mu = 0")
    return closed


def _sector_quadratic(level: int, params: Params) -> tuple[float, float, int]:
    """(b, c, e) of the sector quadratic x^2 - b x + c at level l, s = s_{2l}:
    b = lam Lambda_N + (2 - s) mu and c = mu (lam Lambda_N + (1 - s) mu)
    - s lam Lambda_N mu (N Gamma((l,))), N Gamma exact until one rounding, with
    the rates divided by 2**e, the power of two near max(lam, mu).  That is
    exact, and keeps b*b and c normal floats at any rates."""
    n = params.n_particles
    e = math.frexp(max(params.lam, params.mu))[1]
    lam_L = math.ldexp(params.lam, -e) * kac_gap_Lambda(n)
    mu = math.ldexp(params.mu, -e)
    s = float(hermite_eigenvalue_s_exact(2 * level))
    n_gamma = float(n * sphere_moment_Gamma_exact((level,), n))
    b = lam_L + (2.0 - s) * mu
    c = mu * (lam_L + (1.0 - s) * mu) - s * lam_L * mu * n_gamma
    return b, c, e


def _lower_root(b: float, c: float) -> float:
    disc = b * b - 4.0 * c
    if disc < 0:
        if disc < -1e-12 * max(1.0, b * b):
            raise AssemblyError(f"complex roots in gap quadratic (disc={disc!r})")
        disc = 0.0
    root = math.sqrt(disc)
    hi = 0.5 * (b + root)
    return c / hi if hi != 0 else 0.5 * (b - root)  # stable for the smaller root


def second_gap_matrix(params: Params) -> np.ndarray:
    """Closed-form 2x2 matrix of the generator on the symmetric degree-4 sector,
    basis ordered (pair H_2 H_2 combination, single H_4 sum)."""
    n = params.n_particles
    if n < 2:
        raise ValueError("second gap needs N >= 2")
    lam, mu = params.lam, params.mu
    off = -math.sqrt(3.0) * lam / (2.0 * math.sqrt(n - 1.0))
    return np.array(
        [
            [mu + 3.0 * lam / (2.0 * (n - 1)), off],
            [off, 5.0 * mu / 8.0 + lam / 2.0],
        ]
    )


def second_gap_limit(params: Params) -> float:
    """Large-N limit of the second gap: min(lam/2 + 5 mu/8, mu)."""
    return min(params.lam / 2.0 + 5.0 * params.mu / 8.0, params.mu)


@dataclass(frozen=True)
class SecondGap:
    """Each route `second_gap` checked, and the tolerance it held their spread to."""

    quadratic: float
    matrix: float
    sector: float
    tol: float


def second_gap(params: Params) -> SecondGap:
    """Second spectral gap by three independent routes (quadratic formula,
    closed-form 2x2 eigendecomposition, assembled symmetric degree-4 sector), required
    to agree to AGREEMENT_TOL times the largest |entry| of the sector.  Returns
    every route with that tolerance; the quadratic root is the reported gap."""
    if params.n_particles < 2:
        raise ValueError("second gap needs N >= 2")
    if not params.mu > 0:
        raise ValueError("second gap needs mu > 0")
    mat = second_gap_matrix(params)
    if np.isinf(mat).any():  # before any route's eigensolve
        raise ValueError(f"lambda = {params.lam:.3g}, mu = {params.mu:.3g}: the rates overflow the "
                         "degree-4 sector's entries, such as mu + 3 lambda / (2 (N - 1))")
    r_quad = sector_gap_bound(2, params)
    r_mat = float(np.linalg.eigvalsh(mat)[0])
    sect = build_generator(sector_basis(params.n_particles, 2, symmetric=True), params)
    r_sector = float(sect.eigenvalues()[0])
    tol = _check_tol(sect.entries)
    if not np.ptp((r_quad, r_mat, r_sector)) <= tol:
        raise AssemblyError(
            "second-gap routes disagree: "
            f"quadratic={r_quad!r} matrix={r_mat!r} sector={r_sector!r}"
        )
    return SecondGap(quadratic=r_quad, matrix=r_mat, sector=r_sector, tol=tol)


def sector_gap_bound(level: int, params: Params) -> float:
    """Closed-form lower bound x_l for the smallest eigenvalue of mu*L_T + lam*L_R
    on the degree-2l sector: `_sector_quadratic`'s lower root (level 2: the second gap)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    b, c, e = _sector_quadratic(level, params)
    return math.ldexp(_lower_root(b, c), e)

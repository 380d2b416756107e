"""Entropy functionals and the smoothing operators behind the decay bounds.

Functions of one velocity are represented on a uniform grid (half width 8, in
units of the equilibrium standard deviation, 2048 nodes by default) and
integrated with the trapezoid rule; the angle average uses a THETA_NODES-point
periodic rule (spectrally exact for trigonometric polynomials) and the
Gaussian partner integral a GAUSS_NODES-point Gauss-Hermite rule.  The
partner rule sets the operator's error: on criterion 09's densities it is
9e-11 (g-weighted, relative) with 64 or more angles, 9e-10 with 32.  Because
the Gauss-Hermite nodes are symmetric, the periodic rule folds onto the
quarter period [0, pi/2]: the thermostat operator evaluates THETA_NODES/4 + 1
angles and needs a grid symmetric about 0 (every `uniform_nodes` grid is).
Since it annihilates the odd part of G, it is applied to the even part of G at the
nodes v >= 0 only, and its output mirrored.  Ratio-type functions G = f/g live
against the standard Gaussian weight g; the sample estimator counts physical
velocities against its cell edges scaled by 1/sqrt(beta).

Inside the grid, values come from 8-point Lagrange interpolation, each
stencil's polynomial held in power form and evaluated by Horner's rule.
Off-grid evaluation (the quadratures reach past the grid edge) uses the exact
extension when the grid has one; otherwise it extrapolates log G by a
least-squares parabola over the edge window, which is exact for
Gaussian-family ratios, and falls back to edge clamping when the edge values
are not positive.  The tail parabolas are fitted once per grid.

The thermostat and OU operators share one stencil kernel (`_gauss_average`),
which builds one power-form table and one set of scratch arrays per call.  It
tells off-grid points by comparing them with the end nodes and, unlike
`evaluate`, does not snap positions within 5e-9 of a node onto it, so the
operators agree with `evaluate` at their quadrature points to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import hermite_e

from .core import Params, check_times
from .simulator import (InitialCondition, bootstrap_weights, cell_counts,
                        initial_relative_entropy, run)

GRID_POINTS = 2048
GRID_HALF_WIDTH = 8.0
THETA_NODES = 64
GAUSS_NODES = 32
ESTIMATOR_BINS = 256
BOOTSTRAP_RESAMPLES = 200  # replica resamples behind each entropy error bar
THERMOSTAT_CHECK_TOL = 1e-8
MARGINAL_CHECK_TOL = 1e-10
_STENCIL = 8
_LOG_FLOOR = 1e-300


class EntropyCheckError(RuntimeError):
    """A proved inequality failed numerically beyond tolerance."""


def standard_gaussian(v: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.asarray(v) ** 2) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Uniform increasing velocity grid with values; represents a density f or
    a ratio f/g.

    `extension` is an optional callable giving exact values beyond the grid
    edge (set automatically by `from_function`); without it, off-grid values
    come from a one-sided log-quadratic tail fit, which is exact for
    Gaussian-family ratios, with edge clamping as the last resort.
    """

    nodes: np.ndarray
    values: np.ndarray
    extension: object = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < _STENCIL:
            raise ValueError(f"grid needs at least {_STENCIL} nodes")
        if values.shape != nodes.shape:
            raise ValueError("nodes and values must match")
        spacing = np.diff(nodes)
        if not (spacing[0] > 0 and np.allclose(spacing, spacing[0], rtol=1e-12, atol=0.0)):
            raise ValueError("grid must be increasing and uniform")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        # the mean spacing: nodes[1] - nodes[0] of a linspace grid is off by
        # ~1e-13 relative, which moves the far end's position by ~1e-10
        return float((self.nodes[-1] - self.nodes[0]) / (self.nodes.size - 1))

    @cached_property
    def _tails(self) -> tuple:
        """The left and right `_tail_model`s, fitted on first use."""
        return tuple(_tail_model(self.nodes, self.values, left) for left in (True, False))

    @classmethod
    def uniform_nodes(cls, n: int = GRID_POINTS, half_width: float = GRID_HALF_WIDTH) -> np.ndarray:
        return np.linspace(-half_width, half_width, n)

    @classmethod
    def from_function(cls, fn, n: int = GRID_POINTS,
                      half_width: float = GRID_HALF_WIDTH) -> "DensityGrid":
        nodes = cls.uniform_nodes(n, half_width)
        return cls(nodes=nodes, values=np.asarray(fn(nodes), dtype=float), extension=fn)


_TAIL_WINDOW = 128  # one-sided fit window, ~1 velocity unit on the default grid


def _tail_model(nodes: np.ndarray, values: np.ndarray, left: bool):
    """Least-squares log-quadratic over the edge window, or None for clamping."""
    sl = slice(0, _TAIL_WINDOW) if left else slice(-_TAIL_WINDOW, None)
    x, y = nodes[sl], values[sl]
    edge = values[0] if left else values[-1]
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        return None, edge
    coef = np.polyfit(x, np.log(y), 2)
    return coef, edge


def _tail_values(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp of the tail parabola at x, its log clipped to [-745, 700]: np.polyval's
    value at finite x, and the curve's limit at +-inf (Horner meets no 0 * inf)."""
    lead = np.append(np.trim_zeros(coef[:-1], "f"), coef[-1])
    logs = np.full_like(x, lead[0])
    with np.errstate(over="ignore"):  # an overflowed log is clipped like any other
        for p in lead[1:]:
            logs = logs * x + p
    return np.exp(np.clip(logs, -745.0, 700.0))


def _off_grid(grid: DensityGrid, pts: np.ndarray) -> np.ndarray:
    """Values at 1-d points outside the grid: the exact extension if there is
    one, else the nearer edge's tail model (fitted curve or clamped edge)."""
    if grid.extension is not None:
        return np.asarray(grid.extension(pts), dtype=float)
    nodes = grid.nodes
    out = np.empty_like(pts)
    left = pts < 0.5 * (nodes[0] + nodes[-1])
    for (coef, edge), mask in zip(grid._tails, (left, ~left)):
        if np.any(mask):
            out[mask] = edge if coef is None else _tail_values(coef, pts[mask])
    return out


def _power_form_matrix() -> np.ndarray:
    """Row m: the coefficients of u^0 .. u^7 in the Lagrange basis polynomial
    of stencil node m, with u = t - 3.5 centred on the 8-node stencil; exact
    rationals, each rounded once to float."""
    u = [Fraction(2 * k - (_STENCIL - 1), 2) for k in range(_STENCIL)]
    rows = []
    for m in range(_STENCIL):
        coef = [Fraction(1)]  # prod over k != m of (u - u_k), lowest power first
        for k in range(_STENCIL):
            if k != m:
                coef = [a - u[k] * b for a, b in zip([0, *coef], [*coef, 0])]
        scale = math.prod(u[m] - u[k] for k in range(_STENCIL) if k != m)
        rows.append([float(c / scale) for c in coef])
    return np.array(rows)


_POWER_FORM = _power_form_matrix()


def _stencil_table(values: np.ndarray) -> np.ndarray:
    """The (8, n - 7) power-form table: column b holds the coefficients of
    u^0 .. u^7 of the interpolant on nodes b .. b + 7, with u = t - 3.5."""
    return _POWER_FORM.T @ sliding_window_view(values, _STENCIL).T


def _interpolate(table: np.ndarray, pos: np.ndarray, out: np.ndarray,
                 base: np.ndarray, gathered: np.ndarray) -> np.ndarray:
    """The stencil interpolant at grid positions pos (node spacings from
    nodes[0], in [0, n - 1] up to roundoff), written into out and returned.

    Each point takes the stencil whose middle holds it, clipped at the two
    edges, and Horner's rule with one `take` per table row; away from the
    clipped stencils |u| <= 1/2.  pos is overwritten with u; base (intp) and
    gathered are scratch arrays of its shape."""
    np.floor(pos, out=base, casting="unsafe")
    base -= _STENCIL // 2 - 1
    np.clip(base, 0, table.shape[1] - 1, out=base)
    pos -= base
    pos -= 0.5 * (_STENCIL - 1)
    table[-1].take(base, out=out, mode="clip")
    for row in table[-2::-1]:
        out *= pos
        out += row.take(base, out=gathered, mode="clip")
    return out


def evaluate(grid: DensityGrid, points: np.ndarray) -> np.ndarray:
    """Evaluate the gridded function at arbitrary points: 8-point Lagrange
    interpolation inside the grid, `_off_grid` (the exact extension or the
    tail model, whose limit it takes at +-inf) outside, NaN at NaN points.

    Inside, positions within 5e-9 spacings of a node are snapped onto it, and
    `_interpolate` evaluates `_stencil_table`'s interpolants there."""
    nodes, values = grid.nodes, grid.values
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel()
    out = np.full_like(flat, np.nan)
    x0 = nodes[0]

    inside = (flat >= x0) & (flat <= nodes[-1])
    if np.any(inside):
        pos = (flat[inside] - x0) / grid.spacing
        snapped = np.round(pos)
        np.copyto(pos, snapped, where=np.abs(pos - snapped) < 5e-9)
        out[inside] = _interpolate(_stencil_table(values), pos, np.empty_like(pos),
                                   np.empty(pos.shape, np.intp), np.empty_like(pos))

    outside = (flat < x0) | (flat > nodes[-1])  # a NaN point is neither, and stays NaN
    if np.any(outside):
        out[outside] = _off_grid(grid, flat[outside])
    return out.reshape(pts.shape)


@lru_cache(maxsize=None)
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: at import, hermegauss's LAPACK call raises every run's peak RSS
    x, w = hermite_e.hermegauss(GAUSS_NODES)
    w = w / math.sqrt(2.0 * math.pi)
    for table in (x, w):
        table.flags.writeable = False
    return x, w


def _gauss_average(G: DensityGrid, v: np.ndarray, terms) -> np.ndarray:
    """sum over (a, c, s) in terms of a * sum_j w_j G(c v + s x_j) at each v,
    by the GAUSS_NODES-point Gauss-Hermite rule: the operators' stencil kernel.
    Points past nodes[0] or nodes[-1] are interpolated at a position clipped
    into the grid, then overwritten with their `_off_grid` values."""
    x, w = _gauss_nodes()
    nodes = G.nodes
    lo, hi = nodes[0], nodes[-1]
    h = G.spacing
    table = _stencil_table(G.values)
    shape = (v.size, x.size)
    pts, pos, vals, gathered = (np.empty(shape) for _ in range(4))
    base = np.empty(shape, np.intp)
    off, above = np.empty(shape, bool), np.empty(shape, bool)
    shift, col, acc = np.empty_like(x), np.empty_like(v), np.zeros_like(v)
    for a, c, s in terms:
        np.multiply(c, v[:, None], out=pts)
        pts += np.multiply(s, x, out=shift)
        np.less(pts, lo, out=off)
        off |= np.greater(pts, hi, out=above)
        np.subtract(pts, lo, out=pos)
        pos /= h
        np.clip(pos, 0.0, nodes.size - 1, out=pos)
        _interpolate(table, pos, vals, base, gathered)
        if off.any():
            vals[off] = _off_grid(G, pts[off])
        np.dot(vals, w, out=col)
        col *= a
        acc += col
    return acc


def ou_apply(G: DensityGrid, s: float) -> DensityGrid:
    """Gaussian smoothing semigroup at time s: the value at v is the Gaussian
    average of G(e^-s v + sqrt(1 - e^-2s) w), by `_gauss_average`.  s = 0 is
    the identity, and s = inf gives the constant integral of g * G."""
    if not s >= 0:
        raise ValueError(f"s must be >= 0, got {s!r}")
    if s == 0.0:
        return DensityGrid(nodes=G.nodes, values=G.values.copy(), extension=G.extension)
    c = math.exp(-s)
    spread = math.sqrt(max(0.0, 1.0 - c * c))
    return DensityGrid(nodes=G.nodes, values=_gauss_average(G, G.nodes, [(1.0, c, spread)]))


def t_apply(G: DensityGrid) -> DensityGrid:
    """Thermostat averaging operator: Gaussian partner plus uniform rotation
    angle.  Output is exactly even in v; odd input is annihilated.

    The n = THETA_NODES point periodic angle rule is folded onto the quarter
    period.  With A_k(v) = `_gauss_average` of G(cos(theta_k) v + sin(theta_k) .),
    the symmetric Gauss-Hermite nodes make the angles theta + pi, pi - theta
    and 2 pi - theta contribute A_k(+-v), so

        T[G](v) = (1/n) sum_{k=0}^{n/4} c_k [A_k(v) + A_k(-v)]

    with c_k = 1 at both ends of the quarter period and 2 inside.  A_k(-v) is
    A_k of the reflection G(-.) at v, so A_k(v) + A_k(-v) = 2 A_k[G_e](v) for
    the even part G_e = (G + G(-.))/2, and T[G] is evaluated only at the nodes
    v >= 0 and mirrored.  On the grid G_e is the mean of the values and their
    reversal; off it, the mean of G's own `_off_grid` values at +-q.  The grid
    must be symmetric about 0.  All n/4 + 1 angles go through one
    `_gauss_average` call, so the even part's stencil table is built once.
    """
    nodes = G.nodes
    if np.max(np.abs(nodes + nodes[::-1])) > 1e-9 * G.spacing:
        raise ValueError("grid must be symmetric about 0")
    even = DensityGrid(nodes=nodes, values=0.5 * (G.values + G.values[::-1]),
                       extension=lambda q: 0.5 * (_off_grid(G, q) + _off_grid(G, -q)))
    below = nodes.size // 2
    quarter = THETA_NODES // 4
    terms = []
    for k in range(quarter + 1):
        th = 2.0 * math.pi * k / THETA_NODES
        terms.append((1.0 if k in (0, quarter) else 2.0, math.cos(th), math.sin(th)))
    acc = _gauss_average(even, nodes[below:], terms)
    acc *= 2.0 / THETA_NODES
    return DensityGrid(nodes=nodes, values=np.concatenate([acc[::-1][:below], acc]))


def _xlogx(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log(a[pos])
    return out


def gauss_weighted_entropy(G: DensityGrid) -> float:
    """The entropy functional of a ratio: integral of g * G log G."""
    g = standard_gaussian(G.nodes)
    return float(np.trapezoid(g * _xlogx(G.values), G.nodes))


def semigroup_defect(G: DensityGrid, s: float, t: float) -> float:
    """L2(g) distance between the composed and the one-shot smoothing."""
    two = ou_apply(ou_apply(G, s), t)
    one = ou_apply(G, s + t)
    g = standard_gaussian(G.nodes)
    return math.sqrt(float(np.trapezoid(g * (two.values - one.values) ** 2, G.nodes)))


# ---------------------------------------------------------------------------
# sample estimator

def _gaussian_cell_masses(edges: np.ndarray) -> np.ndarray:
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in edges])
    inner = np.diff(cdf)
    return np.concatenate([[cdf[0]], inner, [1.0 - cdf[-1]]])


def _plugin_kl_rows(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Plug-in relative entropy of each row of the (B, cells) masses p against
    q, less a Miller-Madow style correction for n samples.  A row's sum runs
    over its empty cells too, which add exact zeros."""
    occ = p > 0
    terms = np.divide(p, np.maximum(q, _LOG_FLOOR), out=np.ones_like(p), where=occ)
    np.log(terms, out=terms)
    terms *= p
    return terms.sum(axis=1) - (occ.sum(axis=1) - 1) / (2.0 * n)


# ---------------------------------------------------------------------------
# inequality checks

@dataclass(frozen=True)
class ThermostatEntropyReport:
    lhs: float            # g-weighted integral of T[G] log G
    lhs_smoothed: float   # g-weighted integral of T[G] log T[G]
    rhs: float            # half the entropy functional of G
    margin: float
    margin_smoothed: float


def check_thermostat_entropy_inequality(G: DensityGrid,
                                        strict: bool = True) -> ThermostatEntropyReport:
    """Both forms of the one-particle thermostat entropy inequality; with
    `strict`, a margin below -THERMOSTAT_CHECK_TOL raises."""
    g = standard_gaussian(G.nodes)
    mass = float(np.trapezoid(g * G.values, G.nodes))
    if not abs(mass - 1.0) <= 1e-6:
        raise ValueError(f"g*G is not a normalized density: integral = {mass!r}")
    tg = t_apply(G)
    log_g_vals = np.log(np.maximum(G.values, _LOG_FLOOR))
    lhs = float(np.trapezoid(g * tg.values * log_g_vals, G.nodes))
    lhs_smoothed = float(np.trapezoid(g * _xlogx(tg.values), G.nodes))
    rhs = 0.5 * gauss_weighted_entropy(G)
    report = ThermostatEntropyReport(
        lhs=lhs,
        lhs_smoothed=lhs_smoothed,
        rhs=rhs,
        margin=rhs - lhs,
        margin_smoothed=rhs - lhs_smoothed,
    )
    tol = THERMOSTAT_CHECK_TOL
    if strict and not (report.margin >= -tol and report.margin_smoothed >= -tol):
        raise EntropyCheckError(f"thermostat entropy inequality violated: {report}")
    return report


@dataclass(frozen=True)
class MarginalEntropyReport:
    lhs: float
    rhs: float
    margin: float


def check_marginal_entropy_inequality(joint) -> MarginalEntropyReport:
    """Sum of dropped-coordinate marginal entropies against (N-1) times the
    joint entropy, for a discrete joint density on a product grid; a margin
    below -MARGINAL_CHECK_TOL raises."""
    p = np.asarray(joint, dtype=float)
    n = p.ndim
    if n < 2 or n > 4:
        raise ValueError(f"joint density must have 2..4 axes, got {n}")
    if not np.all(p >= 0):
        raise ValueError("joint density has negative or NaN entries")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-8:
        raise ValueError(f"joint density is not normalized: sum = {total!r}")
    lhs = sum(float(_xlogx(p.sum(axis=j)).sum()) for j in range(n))
    rhs = (n - 1) * float(_xlogx(p).sum())
    report = MarginalEntropyReport(lhs=lhs, rhs=rhs, margin=rhs - lhs)
    if not report.margin >= -MARGINAL_CHECK_TOL:
        raise EntropyCheckError(f"marginal entropy inequality violated: {report}")
    return report


# ---------------------------------------------------------------------------
# decay experiment

@dataclass
class EntropyDecaySeries:
    times: np.ndarray
    estimate: np.ndarray   # one-particle proxy: N * S(pooled marginal | g)
    stderr: np.ndarray
    bound: np.ndarray      # exp(-mu t / 2) * closed-form initial entropy
    initial_entropy: float

    @property
    def fitted_exponent(self) -> float:
        """Decay rate of a log-linear fit through the estimates well above their
        error bars and the floor 1e-3 est[0]; NaN with fewer than three."""
        est = self.estimate
        usable = est > np.maximum(3.0 * self.stderr, 1e-3 * max(est[0], 1e-12))
        if usable.sum() < 3:
            return float("nan")
        return -float(np.polyfit(self.times[usable], np.log(est[usable]), 1)[0])


def _pooled_estimate_with_cluster_bootstrap(
    v: np.ndarray, beta: float, weights: np.ndarray
) -> tuple[float, float]:
    # every row of the design is a weighted sum of per-replica cell counts: row
    # 0 the sample, rows 1.. its resamples.  The sums are integers below 2**53,
    # so one matmul gives each row exactly
    m, n = v.shape
    edges = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, ESTIMATOR_BINS + 1)
    n_tot = m * n
    p = weights @ cell_counts(v, edges / math.sqrt(beta))
    p /= n_tot
    kl = _plugin_kl_rows(p, _gaussian_cell_masses(edges), n_tot)
    return float(kl[0]), float(np.std(kl[1:], ddof=1))


def entropy_decay_experiment(
    params: Params,
    initial: InitialCondition,
    sample_times,
    n_replicas: int,
    seed: int = 0,
) -> EntropyDecaySeries:
    """Track the one-particle relative-entropy proxy along a simulation and
    compare with the exponential bound from the closed-form initial entropy.

    The proxy N*S(pooled marginal | g) never exceeds the full N-body relative
    entropy (superadditivity plus convexity over the particle average), so the
    bound curve dominates it up to estimator noise.  Error bars come from a
    bootstrap over whole replica trajectories, which respects the
    within-replica correlation that collisions introduce: one design of
    BOOTSTRAP_RESAMPLES resamples is drawn before the run (`bootstrap_weights` at
    seed + 0x5EED, its row 0 the sample itself) and scores every sample time,
    value and resamples in one pass, so a row does not depend on the other
    sample times.  Cells are half-open, the top edge counting as
    overflow (`simulator.cell_counts`).  Each sample time is estimated from the
    live state when the simulator stops there, so no copy of it is kept.
    """
    s0 = initial_relative_entropy(initial, params)
    if not math.isfinite(s0):
        raise ValueError("the initial relative entropy, the bound at t = 0, overflows")
    times = check_times(sample_times, ())
    n = params.n_particles
    weights = bootstrap_weights(n_replicas, BOOTSTRAP_RESAMPLES, seed + 0x5EED)
    estimates = []

    def estimate(_, v):
        estimates.append(_pooled_estimate_with_cluster_bootstrap(v, params.beta, weights))

    run(
        params,
        n_replicas=n_replicas,
        sample_times=(),
        seed=seed,
        initial=initial,
        observe_times=times,
        observe=estimate,
    )
    est, err = n * np.array(estimates).T
    bound = s0 * np.exp(-params.mu * times / 2.0)
    return EntropyDecaySeries(
        times=times,
        estimate=est,
        stderr=err,
        bound=bound,
        initial_entropy=s0,
    )

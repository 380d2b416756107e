import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import hermite_e

import kaclab.entropy as entropy_module
from kaclab.core import Params, hermite_eigenvalue_s
from kaclab.entropy import (
    GAUSS_NODES,
    DensityGrid,
    check_marginal_entropy_inequality,
    check_thermostat_entropy_inequality,
    entropy_decay_experiment,
    evaluate,
    gauss_weighted_entropy,
    ou_apply,
    semigroup_defect,
    standard_gaussian,
    t_apply,
)
from kaclab.simulator import ProductGaussian, TwoTemperature, bootstrap_weights, cell_counts
from test_acceptance import _thermostat_density_suite

SEED = 20260808


def per_row_cell_counts(u, edges):
    # reference per-row counting with np.histogram; it counts a sample on
    # edges[-1] twice, so it is an oracle only for data that avoids that edge
    inner, _ = np.histogram(u, bins=edges)
    under = int(np.count_nonzero(u < edges[0]))
    over = int(np.count_nonzero(u >= edges[-1]))
    return np.concatenate([[under], inner, [over]]).astype(np.int64)


def per_draw_design(m, n_bootstrap, seed):
    # reference bootstrap design: one multinomial resample of the m replicas
    # per draw
    rng = np.random.default_rng(seed)
    return [rng.multinomial(m, np.full(m, 1.0 / m)).astype(float) for _ in range(n_bootstrap)]


def plugin_kl(p, q, n):
    # reference plug-in relative entropy of one mass vector: a sum over its
    # occupied cells alone, with the Miller-Madow style correction
    occ = p > 0
    value = float(np.sum(p[occ] * np.log(p[occ] / np.maximum(q[occ], 1e-300))))
    return value - (int(occ.sum()) - 1) / (2.0 * n)


def per_row_pooled_estimate(snapshot, beta, design):
    # reference replica bootstrap: per-row counts of the velocities against the
    # edges scaled by 1/sqrt(beta), the value from the pooled counts, and one
    # mat-vec and one plug-in KL row per resample of the design
    m, n = snapshot.shape
    edges = np.linspace(-8.0, 8.0, 257)
    q = entropy_module._gaussian_cell_masses(edges)
    counts = np.empty((m, edges.size + 1), dtype=np.int64)
    for r in range(m):
        counts[r] = per_row_cell_counts(snapshot[r], edges / math.sqrt(beta))
    n_tot = m * n
    value = plugin_kl(counts.sum(axis=0) / n_tot, q, n_tot)
    boots = np.empty(len(design))
    for b, weights in enumerate(design):
        row = (weights @ counts) / n_tot
        boots[b] = entropy_module._plugin_kl_rows(row[None], q, n_tot)[0]
    return value, float(boots.std(ddof=1))


def gauss_inner(a, b):
    # the L2(g) inner product of two functions on one grid, by the trapezoid rule
    g = standard_gaussian(a.nodes)
    return float(np.trapezoid(g * a.values * b.values, a.nodes))


def hermite_grid(k, half_width=8.0, n=2048):
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return DensityGrid.from_function(lambda v: hermite_e.hermeval(v, coef),
                                     n=n, half_width=half_width)


def ratio_of_gaussian(variance, mean=0.0):
    # (density with the given moments) / standard gaussian, on the grid
    def fn(v):
        f = np.exp(-((v - mean) ** 2) / (2 * variance)) / math.sqrt(2 * math.pi * variance)
        return f / standard_gaussian(v)

    return DensityGrid.from_function(fn)


def product_form_evaluate(grid, points):
    # reference interpolation inside the grid: each 8-point Lagrange weight as
    # a product over the stencil, vectorized over the points
    nodes, values = grid.nodes, grid.values
    p = np.asarray(points, dtype=float).ravel()
    assert np.all((p >= nodes[0]) & (p <= nodes[-1]))
    pos = (p - nodes[0]) / grid.spacing
    snapped = np.round(pos)
    near = np.abs(pos - snapped) < 5e-9
    pos[near] = snapped[near]
    base = np.clip(np.floor(pos).astype(np.int64) - 3, 0, nodes.size - 8)
    t = pos - base
    acc = np.zeros_like(p)
    for m in range(8):
        w = np.ones_like(p)
        for k in range(8):
            if k != m:
                w *= (t - k) / (m - k)
        acc += w * values[base + m]
    return acc


def one_call_table_evaluate(grid, points):
    # evaluate's interior as one expression per step, with fresh arrays: the
    # reference that evaluate's arithmetic must match bit for bit
    nodes = grid.nodes
    pos = (np.asarray(points, dtype=float) - nodes[0]) / grid.spacing
    snapped = np.round(pos)
    np.copyto(pos, snapped, where=np.abs(pos - snapped) < 5e-9)
    base = np.clip(np.floor(pos).astype(np.int64) - 3, 0, nodes.size - 8)
    u = pos - base
    u -= 3.5
    table = entropy_module._POWER_FORM.T @ sliding_window_view(grid.values, 8).T
    acc = table[-1][base]
    for row in table[-2::-1]:
        acc *= u
        acc += row[base]
    return acc


def _gauss_hermite(n=GAUSS_NODES):
    x, w = hermite_e.hermegauss(n)
    return x, w / math.sqrt(2.0 * math.pi)


def full_period_t_apply(G):
    # oracle: t_apply's periodic angle rule over the whole period, one angle at a time
    n_theta = entropy_module.THETA_NODES
    x, w = _gauss_hermite()
    acc = np.zeros_like(G.nodes)
    for th in 2.0 * math.pi * np.arange(n_theta) / n_theta:
        pts = math.cos(th) * G.nodes[:, None] + math.sin(th) * x[None, :]
        acc += evaluate(G, pts) @ w
    return DensityGrid(nodes=G.nodes, values=acc / n_theta)


def even_part(G):
    # the even part of G as t_apply folds it, as a grid for evaluate
    off = entropy_module._off_grid
    return DensityGrid(G.nodes, 0.5 * (G.values + G.values[::-1]),
                       extension=lambda q: 0.5 * (off(G, q) + off(G, -q)))


def folded_t_apply_at(G, v, n_theta, gauss_nodes=GAUSS_NODES):
    # the folded periodic angle rule at the points v, from evaluate on the
    # even part of G: sum over the quarter period, end angles weighted 1/2
    x, w = _gauss_hermite(gauss_nodes)
    even = even_part(G)
    quarter = n_theta // 4
    acc = np.zeros_like(v)
    for k in range(quarter + 1):
        th = 2.0 * math.pi * k / n_theta
        pts = math.cos(th) * v[:, None] + math.sin(th) * x[None, :]
        acc += (1.0 if k in (0, quarter) else 2.0) * (evaluate(even, pts) @ w)
    return acc * (2.0 / n_theta)


def quarter_average_gauss_legendre(G, n_theta=64):
    # independent oracle for even G: Gauss-Legendre average over [0, pi/2]
    t_gl, w_gl = np.polynomial.legendre.leggauss(n_theta)
    x, w = _gauss_hermite()
    acc = np.zeros_like(G.nodes)
    for th, wt in zip(0.25 * math.pi * (t_gl + 1.0), w_gl / 2.0):
        pts = math.cos(th) * G.nodes[:, None] + math.sin(th) * x[None, :]
        acc += wt * (evaluate(G, pts) @ w)
    return DensityGrid(nodes=G.nodes, values=acc)


FOLD_CASES = pytest.mark.parametrize("fn", [
    lambda v: np.exp(-0.25 * v**2) * (1.0 + 0.3 * v**2),      # even
    lambda v: v,                                              # Hermite 1
    lambda v: v**3 - 3.0 * v,                                 # Hermite 3
    lambda v: 0.7 * np.exp(-((v - 1.1) ** 2)) + 0.3 * np.exp(-2.0 * (v + 0.4) ** 2),
], ids=["even", "hermite1", "hermite3", "mixture"])


ORACLE_GRIDS = pytest.mark.parametrize("grid", [
    ratio_of_gaussian(2.0),
    hermite_grid(6),
    DensityGrid(DensityGrid.uniform_nodes(),
                np.random.default_rng(SEED).standard_normal(2048)),
], ids=["ratio", "hermite6", "rough"])


def oracle_points(grid):
    rng = np.random.default_rng(SEED)
    nodes, h = grid.nodes, grid.spacing
    return np.concatenate([
        rng.uniform(nodes[0], nodes[-1], 20_000),
        nodes,                                                    # node hits
        nodes[1:-1] + rng.uniform(-4.9e-9, 4.9e-9, nodes.size - 2) * h,  # snapped
        rng.uniform(nodes[0], nodes[4], 500),                     # clipped left stencil
        rng.uniform(nodes[-5], nodes[-1], 500),                   # clipped right stencil
        nodes[[0, -1]],
    ])


class TestEvaluate:
    def test_near_exact_at_nodes(self):
        g = hermite_grid(4)
        got = evaluate(g, g.nodes)
        assert np.max(np.abs(got - g.values) / (1 + np.abs(g.values))) < 1e-13

    def test_interpolates_polynomial_exactly(self):
        g = hermite_grid(6)
        pts = np.linspace(-7.9, 7.9, 1001) + 1e-4
        want = hermite_e.hermeval(pts, np.eye(7)[6])
        assert np.max(np.abs(evaluate(g, pts) - want) / (1 + np.abs(want))) < 1e-10

    def test_gaussian_tail_fit_without_extension(self):
        # strip the exact extension: the log-quadratic tail fit must still be
        # essentially exact for a Gaussian-family ratio
        with_ext = ratio_of_gaussian(2.0)
        g = DensityGrid(with_ext.nodes, with_ext.values)
        pts = np.array([-10.5, -9.0, 9.0, 10.5])
        want = np.exp(pts**2 / 4) / math.sqrt(2.0)
        assert np.max(np.abs(evaluate(g, pts) / want - 1.0)) < 1e-9

    def test_exact_extension_used_outside(self):
        g = ratio_of_gaussian(2.0)
        pts = np.array([-12.0, 12.0])
        want = np.exp(pts**2 / 4) / math.sqrt(2.0)
        assert np.max(np.abs(evaluate(g, pts) / want - 1.0)) < 1e-14

    @ORACLE_GRIDS
    def test_matches_product_form_oracle(self, grid):
        pts = oracle_points(grid)
        want = product_form_evaluate(grid, pts)
        got = evaluate(grid, pts)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @ORACLE_GRIDS
    def test_bit_identical_to_one_call_table(self, grid):
        pts = oracle_points(grid)
        assert np.array_equal(evaluate(grid, pts), one_call_table_evaluate(grid, pts))

    def test_nan_points_give_nan(self):
        nodes = DensityGrid.uniform_nodes()
        pts = np.array([np.nan, 0.3, -9.0, 9.0, np.nan])
        for g in (DensityGrid(nodes, np.exp(-0.1 * nodes**2)),   # tail model
                  ratio_of_gaussian(2.0)):                          # extension
            out = evaluate(g, pts)
            assert np.isnan(out[[0, 4]]).all()
            assert np.isfinite(out[1:4]).all()

    def test_sign_changing_function_tails(self):
        nodes = DensityGrid.uniform_nodes()
        g = DensityGrid(nodes, nodes.copy())  # no extension attached
        out = evaluate(g, np.array([9.0, -9.0]))
        # negative left edge forces a clamp; positive right edge extrapolates
        assert out[1] == g.values[0]
        assert math.isclose(out[0], 9.0, rel_tol=5e-3)

    def test_infinite_points_take_the_tail_limit(self):
        # without an extension, +-inf gets the limit of the tail curve (its log
        # clipped to [-745, 700]), which is also its value at +-1e300, and
        # neither warns
        nodes = DensityGrid.uniform_nodes()
        for values, want in ((np.exp(-0.1 * nodes**2), math.exp(-745.0)),
                             (np.exp(0.05 * nodes**2), math.exp(700.0)),
                             (np.ones_like(nodes), 1.0)):
            g = DensityGrid(nodes, values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                at_inf = evaluate(g, np.array([np.inf, -np.inf]))
                at_big = evaluate(g, np.array([1e300, -1e300]))
            assert np.array_equal(at_inf, at_big)
            assert np.allclose(at_inf, want, rtol=1e-12, atol=0.0)
        clamped = DensityGrid(nodes, nodes.copy())  # left edge negative: clamped
        assert evaluate(clamped, np.array([-np.inf]))[0] == nodes[0]


class TestDensityGrid:
    @pytest.mark.parametrize("n", [2048, 1023])
    def test_spacing_places_every_node(self, n):
        # evaluate and the operators interpolate at positions (x - nodes[0]) /
        # spacing, so each node must land on its index to roundoff (the first
        # difference as the spacing put the last of 2048 nodes 1.2e-10 off)
        nodes = DensityGrid.uniform_nodes(n)
        h = DensityGrid(nodes, np.ones(n)).spacing
        assert np.max(np.abs((nodes - nodes[0]) / h - np.arange(n))) <= 1e-12

    def test_rejects_nodes_that_do_not_increase(self):
        # a descending uniform grid has a negative spacing, which flips the
        # sign of every trapezoid integral over it: this -0.192 would read +0.192
        up = np.linspace(-8.0, 8.0, 2048)
        assert gauss_weighted_entropy(DensityGrid(up, np.exp(-up**2))) < -0.19
        for nodes in (up[::-1], np.zeros(2048)):
            with pytest.raises(ValueError, match="increasing"):
                DensityGrid(nodes, np.exp(-nodes**2))


class TestOuSemigroup:
    def test_identity_at_zero_and_on_constants(self):
        g = DensityGrid.from_function(lambda v: np.ones_like(v))
        assert np.array_equal(ou_apply(g, 0.0).values, g.values)
        out = ou_apply(g, 0.7)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    def test_linear_contracts_exponentially(self):
        g = DensityGrid.from_function(lambda v: v)
        for s in (0.3, 1.0):
            out = ou_apply(g, s)
            inner = np.abs(g.nodes) <= 6.0
            err = np.abs(out.values[inner] - math.exp(-s) * g.nodes[inner])
            assert np.max(err) < 1e-8

    def test_semigroup_property(self):
        suite = [
            DensityGrid.from_function(
                lambda v: 1.0 + 0.4 * hermite_e.hermeval(v, [0, 0, 1]) * np.exp(-(v**2) / 4)
            ),
            ratio_of_gaussian(2.0),
        ]
        for g in suite:
            for s, t in [(0.1, 0.5), (0.5, 1.0), (1.0, 2.0)]:
                assert semigroup_defect(g, s, t) < 1e-8

    def test_entropy_contraction(self):
        suite = [
            ratio_of_gaussian(2.0),
            ratio_of_gaussian(0.5),
            ratio_of_gaussian(1.0, mean=0.8),
        ]
        for g in suite:
            base = gauss_weighted_entropy(g)
            assert base > 0
            for s in (0.1, 0.5, 1.0, 2.0):
                after = gauss_weighted_entropy(ou_apply(g, s))
                assert after <= math.exp(-2.0 * s) * base + 1e-8

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ou_apply(hermite_grid(0), -0.1)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            ou_apply(hermite_grid(0), math.nan)

    def test_infinite_time_gives_gaussian_average(self):
        g = ratio_of_gaussian(2.0, mean=0.3)
        out = ou_apply(g, math.inf)
        assert np.all(out.values == out.values[0])
        assert math.isclose(out.values[0], 1.0, rel_tol=1e-12)  # g * G is a probability density

    def test_identity_keeps_extension(self):
        g = ratio_of_gaussian(2.0, mean=0.3)
        pts = np.array([-12.0, -10.0, -8.5, 8.5, 10.0, 12.0])
        assert np.array_equal(evaluate(ou_apply(g, 0.0), pts), evaluate(g, pts))


class TestThermostatOperator:
    def test_constant_fixed(self):
        out = t_apply(DensityGrid.from_function(lambda v: np.ones_like(v)))
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    @pytest.mark.parametrize("k", range(0, 9))
    def test_spectral_action(self, k):
        # quadrature applied to the k-th Hermite polynomial reproduces the
        # closed-form angular eigenvalue to 1e-8 in the L2(g) sense; the
        # window must hold the Gaussian-weighted mass of the degree-2k moment
        hk = hermite_grid(k, half_width=13.0, n=3328)
        out = t_apply(hk)
        s_k = hermite_eigenvalue_s(k)
        norm2 = math.factorial(k)
        coeff = gauss_inner(out, hk) / norm2
        assert abs(coeff - s_k) < 1e-8
        resid = DensityGrid(out.nodes, out.values - s_k * hk.values)
        assert math.sqrt(max(gauss_inner(resid, resid), 0.0)) / math.sqrt(norm2) < 1e-8

    def test_output_even_and_odd_annihilated(self):
        g = DensityGrid.from_function(lambda v: np.exp(-((v - 1.2) ** 2)))
        out = t_apply(g)
        assert np.max(np.abs(out.values - out.values[::-1])) < 1e-12
        odd = t_apply(hermite_grid(1))
        assert math.sqrt(max(gauss_inner(odd, odd), 0.0)) < 1e-10

    def test_quarter_average_matches_on_even(self):
        for g in (hermite_grid(4), ratio_of_gaussian(2.0)):
            a = t_apply(g)
            b = quarter_average_gauss_legendre(g)
            diff = DensityGrid(a.nodes, a.values - b.values)
            assert math.sqrt(max(gauss_inner(diff, diff), 0.0)) < 1e-8

    @FOLD_CASES
    def test_fold_matches_full_period(self, fn):
        g = DensityGrid.from_function(fn, n=512)
        got = t_apply(g)
        want = full_period_t_apply(g)
        scale = max(1.0, float(np.max(np.abs(want.values))))
        assert np.max(np.abs(got.values - want.values)) / scale <= 1e-12
        assert np.array_equal(got.values, got.values[::-1])

    @FOLD_CASES
    @pytest.mark.parametrize("grid", ["odd", "tail"])
    def test_fold_matches_full_period_odd_grid_and_tail_model(self, fn, grid):
        # an odd node count puts a node at v = 0; a grid without an extension
        # takes its off-grid values from the tail model on both sides.  T
        # averages G, so the rounding of either rule scales with G; for odd G
        # the output is 0 and the oracle's THETA_NODES-angle sum cancels terms
        # of size max|G|
        g = DensityGrid.from_function(fn, n=511 if grid == "odd" else 512)
        if grid == "tail":
            g = DensityGrid(g.nodes, g.values)
        got = t_apply(g)
        want = full_period_t_apply(g)
        scale = max(1.0, float(np.max(np.abs(g.values))))
        assert np.max(np.abs(got.values - want.values)) / scale <= 1e-12
        assert np.array_equal(got.values, got.values[::-1])

    def test_converged_on_criterion_09_suite(self):
        # accuracy, not agreement with an earlier version: against 256 angles
        # and 48 Gauss-Hermite nodes the relative L2(g) error is 8.8e-11 (set
        # by the 32-node partner rule) with 64 or more angles, 9.3e-10 with 32
        worst = 0.0
        for G in _thermostat_density_suite():
            below = G.nodes.size // 2
            half = G.nodes[below:]
            ref = folded_t_apply_at(G, half, 256, gauss_nodes=48)
            err = t_apply(G).values[below:] - ref
            g = standard_gaussian(half)
            worst = max(worst, math.sqrt(np.trapezoid(g * err**2, half)
                                         / np.trapezoid(g * ref**2, half)))
        assert worst <= 5e-10

    def test_rejects_asymmetric_grid(self):
        nodes = DensityGrid.uniform_nodes(512)
        shifted = nodes + 0.5 * (nodes[1] - nodes[0])
        with pytest.raises(ValueError, match="symmetric"):
            t_apply(DensityGrid(shifted, np.ones_like(shifted)))


def mixture_grid(n, half_width=8.0, extension=True):
    # a two-component Gaussian mixture over the standard Gaussian, times
    # 1 + v^2/10 so that its log is not a parabola in the tails, where the
    # tail model then differs from the grid's interpolant
    def fn(v):
        v = np.asarray(v, dtype=float)
        f = (0.6 * np.exp(-((v + 0.7) ** 2)) / math.sqrt(math.pi)
             + 0.4 * np.exp(-((v - 1.1) ** 2) / 2.4) / math.sqrt(2.4 * math.pi))
        return (1.0 + 0.1 * v**2) * f / standard_gaussian(v)

    g = DensityGrid.from_function(fn, n=n, half_width=half_width)
    return g if extension else DensityGrid(g.nodes, g.values)


class TestStencilKernel:
    """The operators against the sums of `evaluate(G, pts) @ w` over their
    quadrature points.  evaluate snaps positions within 5e-9 spacings of a node
    onto it and the operators do not.  That matters at angle 0 alone, where
    every point is a node: there single values move by roundoff, scaled by
    that angle's weight 2/THETA_NODES in the folded rule."""

    @pytest.mark.parametrize("grid", [
        mixture_grid(2048),
        mixture_grid(2047),
        # the last node's position computes to n - 1 + 1.2e-10 (2048 nodes) and
        # n - 1 + 1.8e-12 (2047): operators that told off-grid points by their
        # position, not by comparing them with the end nodes, would take that
        # node's value at angle 0 from the tail model
        mixture_grid(2048, extension=False),
        mixture_grid(2047, extension=False),
        # on a narrow grid the points just past either edge carry weight, so
        # operators that told them by rounded position would fail far above
        # roundoff
        mixture_grid(512, half_width=4.0, extension=False),
    ], ids=["extension-even", "extension-odd", "tail-even", "tail-odd", "tail-narrow"])
    def test_operators_match_evaluate(self, grid):
        x, w = _gauss_hermite()
        below = grid.nodes.size // 2
        want = folded_t_apply_at(grid, grid.nodes[below:], entropy_module.THETA_NODES)
        np.testing.assert_allclose(t_apply(grid).values,
                                   np.concatenate([want[::-1][:below], want]),
                                   rtol=1e-13, atol=0.0)
        for s in (0.1, 1.0, math.inf):
            c = math.exp(-s)
            spread = math.sqrt(1.0 - c * c)
            want = evaluate(grid, c * grid.nodes[:, None] + spread * x[None, :]) @ w
            np.testing.assert_allclose(ou_apply(grid, s).values, want, rtol=1e-13, atol=0.0)

    def test_tail_fit_once_per_grid(self, monkeypatch):
        # the tail parabolas are fitted on a grid's first off-grid value and
        # reused; every value stays what a fresh fit gives
        g = mixture_grid(1024, extension=False)
        fit = entropy_module._tail_model
        sides = []
        monkeypatch.setattr(entropy_module, "_tail_model",
                            lambda nodes, values, left: sides.append(left) or fit(nodes, values, left))
        pts = np.array([-np.inf, -11.0, -8.01, 8.01, 9.5, np.inf])
        first = evaluate(g, pts)
        t_apply(g)
        ou_apply(g, 0.5)
        again = evaluate(g, pts)
        assert sides == [True, False]
        want = [entropy_module._tail_values(fit(g.nodes, g.values, left)[0], pts[mask])
                for left, mask in ((True, pts < 0), (False, pts > 0))]
        assert np.array_equal(first, np.concatenate(want))
        assert np.array_equal(again, first)

    def test_criterion_09_margins_match_frozen(self):
        # the margins as they were when t_apply interpolated through evaluate
        frozen = Path(__file__).parent / "data" / "criterion09_margins.csv"
        want = np.loadtxt(frozen, delimiter=",", skiprows=3)
        reports = [check_thermostat_entropy_inequality(g, strict=False)
                   for g in _thermostat_density_suite()]
        got = np.array([(rep.margin, rep.margin_smoothed) for rep in reports])
        assert want.shape == (10, 3)
        assert np.max(np.abs(got - want[:, 1:])) <= 1e-14


class TestThermostatEntropyInequality:
    def test_constant_saturates(self):
        rep = check_thermostat_entropy_inequality(
            DensityGrid.from_function(lambda v: np.ones_like(v))
        )
        assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10

    def test_hot_gaussian_strict(self):
        rep = check_thermostat_entropy_inequality(ratio_of_gaussian(2.0))
        assert rep.margin > 0.01
        assert rep.margin_smoothed > 0.01

    def test_quartic_perturbation(self):
        def fn(v):
            h4 = hermite_e.hermeval(v, [0, 0, 0, 0, 1.0])
            return np.maximum(1.0 + 0.5 * h4 / math.sqrt(24.0) * np.exp(-(v**2) / 8), 1e-9)

        g = DensityGrid.from_function(fn)
        z = float(np.trapezoid(standard_gaussian(g.nodes) * g.values, g.nodes))
        rep = check_thermostat_entropy_inequality(DensityGrid(g.nodes, g.values / z))
        assert rep.margin > -1e-8

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            check_thermostat_entropy_inequality(
                DensityGrid.from_function(lambda v: np.full_like(v, 2.0))
            )

    @pytest.mark.parametrize("strict", [True, False])
    def test_rejects_a_nan_value(self, strict):
        g = ratio_of_gaussian(2.0)
        values = g.values.copy()
        values[700] = math.nan
        with pytest.raises(ValueError, match="normalized"):
            check_thermostat_entropy_inequality(DensityGrid(g.nodes, values), strict=strict)


class TestMarginalEntropyInequality:
    def test_product_equality(self):
        rng = np.random.default_rng(SEED)
        for n in (2, 3, 4):
            margs = [rng.random(4) + 0.1 for _ in range(n)]
            margs = [m / m.sum() for m in margs]
            joint = margs[0]
            for m in margs[1:]:
                joint = np.multiply.outer(joint, m)
            rep = check_marginal_entropy_inequality(joint)
            assert abs(rep.margin) < 1e-12

    def test_uniform_equality(self):
        joint = np.full((3, 3, 3), 1.0 / 27.0)
        rep = check_marginal_entropy_inequality(joint)
        assert abs(rep.margin) < 1e-12

    def test_perfect_correlation_strict(self):
        joint = np.zeros((2, 2))
        joint[0, 0] = joint[1, 1] = 0.5
        rep = check_marginal_entropy_inequality(joint)
        assert math.isclose(rep.margin, math.log(2.0), rel_tol=1e-12)

    def test_random_joints_hold(self):
        rng = np.random.default_rng(SEED)
        for n, shape in [(2, (5, 5)), (3, (4, 4, 4)), (4, (3, 3, 3, 3))]:
            for _ in range(10):
                joint = rng.random(shape) ** 2
                joint /= joint.sum()
                rep = check_marginal_entropy_inequality(joint)
                assert rep.margin >= -1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            check_marginal_entropy_inequality(np.ones(4))
        with pytest.raises(ValueError):
            check_marginal_entropy_inequality(np.full((2, 2), 0.3))

    @pytest.mark.parametrize("joint", [[[math.nan, 0.5], [0.5, 0.0]],
                                       [[math.nan, 0.0], [0.0, 0.0]]])
    def test_rejects_nan_entries(self, joint):
        with pytest.raises(ValueError, match="NaN"):
            check_marginal_entropy_inequality(joint)


def pooled_estimate(samples, beta, n_bootstrap=200, seed=SEED):
    # the decay experiment's estimator on 2000 replicas of the samples
    weights = bootstrap_weights(2000, n_bootstrap, seed)
    return entropy_module._pooled_estimate_with_cluster_bootstrap(
        np.reshape(samples, (2000, -1)), beta, weights)


class TestSampleEstimator:
    def test_equilibrium_near_zero(self):
        rng = np.random.default_rng(SEED)
        value, stderr = pooled_estimate(rng.standard_normal(200_000), beta=1.0)
        assert abs(value) < 3 * stderr + 5e-4

    def test_hot_gaussian_matches_closed_form(self):
        rng = np.random.default_rng(SEED)
        samples = math.sqrt(2.0) * rng.standard_normal(400_000)
        value, stderr = pooled_estimate(samples, beta=1.0)
        want = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert abs(value - want) < 3 * stderr + 2e-3

    def test_beta_rescaling(self):
        rng = np.random.default_rng(SEED)
        beta = 4.0
        samples = math.sqrt(2.0 / beta) * rng.standard_normal(200_000)
        value, stderr = pooled_estimate(samples, beta=beta)
        want = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert abs(value - want) < 3 * stderr + 2e-3

    def test_matches_per_draw_bootstrap(self):
        # the error bar is bit-identical; the value sums the empty cells too,
        # which reorders its sum
        rng = np.random.default_rng(SEED)
        samples = 1.2 * rng.standard_normal(20_000)
        beta, n_boot = 1.5, 40
        got = pooled_estimate(samples, beta=beta, n_bootstrap=n_boot)
        edges = np.linspace(-8.0, 8.0, 257)
        q = entropy_module._gaussian_cell_masses(edges)
        p = per_row_cell_counts(samples, edges / math.sqrt(beta)) / samples.size
        want = per_row_pooled_estimate(samples.reshape(2000, -1), beta,
                                       per_draw_design(2000, n_boot, SEED))
        assert want[0] == plugin_kl(p, q, samples.size)
        assert math.isclose(got[0], want[0], rel_tol=1e-14)
        assert got[1] == want[1]

    def test_vectorized_kl_matches_one_call_per_resample(self):
        # the rows sum their empty cells too, which reorders the sum; the
        # estimate is well above 0, so the Miller-Madow term cancels little
        rng = np.random.default_rng(SEED)
        edges = np.linspace(-8.0, 8.0, 257)
        q = entropy_module._gaussian_cell_masses(edges)
        counts = cell_counts(1.2 * rng.standard_normal((2000, 10)), edges)
        n_tot = counts.sum()
        resampled = (bootstrap_weights(2000, 200, SEED) @ counts) / n_tot
        assert np.any(resampled == 0.0)
        got = entropy_module._plugin_kl_rows(resampled, q, n_tot)
        want = np.array([plugin_kl(p, q, n_tot) for p in resampled])
        assert np.all(want > 0.01)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestDecayExperiment:
    def test_refuses_one_replica(self):
        # one replica gave error bars of exactly 0 under an estimate of 11.09
        with pytest.raises(ValueError, match="two"):
            entropy_decay_experiment(Params(10, 1, 1), TwoTemperature(4, 0.5, 1), [0, 1],
                                     n_replicas=1, seed=3)

    def test_equilibrium_start_stays_small(self):
        p = Params(n_particles=20, lam=1.0, mu=1.0)
        series = entropy_decay_experiment(
            p, ProductGaussian(temperature=1.0), np.linspace(0, 1, 3), n_replicas=400,
            seed=SEED,
        )
        assert series.initial_entropy == 0.0
        assert np.all(series.estimate < 0.2)

    def test_two_temperature_below_bound(self):
        p = Params(n_particles=20, lam=1.0, mu=1.0)
        series = entropy_decay_experiment(
            p, TwoTemperature(t_hot=4.0, t_cold=0.5, n_hot=4), np.linspace(0, 3, 7),
            n_replicas=1500, seed=SEED,
        )
        assert np.all(series.estimate <= series.bound + 3 * series.stderr)
        assert np.isfinite(series.fitted_exponent)
        # the estimate is non-increasing along the trajectory within error bars
        shifts = np.diff(series.estimate)
        noise = 3 * (series.stderr[1:] + series.stderr[:-1])
        assert np.all(shifts <= noise)

    def test_matches_per_row_estimator(self, monkeypatch):
        # the oracle ignores the design it is handed: it draws its own, once
        # per experiment, from the experiment's bootstrap seed.  The error bars
        # agree bit for bit, the values to roundoff
        p = Params(n_particles=12, lam=1.0, mu=1.0, beta=1.3)
        kwargs = dict(initial=TwoTemperature(t_hot=4.0, t_cold=0.5, n_hot=3),
                      n_replicas=300, sample_times=np.linspace(0, 2, 5), seed=SEED)
        monkeypatch.setattr(entropy_module, "BOOTSTRAP_RESAMPLES", 30)
        got = entropy_decay_experiment(p, **kwargs)
        design = per_draw_design(300, 30, SEED + 0x5EED)
        monkeypatch.setattr(entropy_module, "_pooled_estimate_with_cluster_bootstrap",
                            lambda v, beta, _: per_row_pooled_estimate(v, beta, design))
        want = entropy_decay_experiment(p, **kwargs)
        np.testing.assert_allclose(got.estimate, want.estimate, rtol=1e-14, atol=0.0)
        assert np.array_equal(got.stderr, want.stderr)

    def test_refuses_an_initial_entropy_that_overflows(self):
        # the closed-form S(0) of a start at T = 1e308 is inf, and so is the bound
        with pytest.raises(ValueError, match="overflows"):
            entropy_decay_experiment(Params(40), TwoTemperature(1e308, 0.5, 4), [0.0, 1.0],
                                     n_replicas=10)

    @pytest.mark.parametrize("times", [[0.0, 0.0], [1.0, 0.5], [0.0, math.nan]])
    def test_rejects_times_that_run_rejects(self, times):
        # the sample times reach run as observe times, an unordered set, yet keep
        # run's rule for sample times
        p = Params(n_particles=4, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="finite"):
            entropy_decay_experiment(p, ProductGaussian(temperature=1.0), times, n_replicas=5)

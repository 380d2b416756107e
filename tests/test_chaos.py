import math
from dataclasses import dataclass

import numpy as np
import pytest

from kaclab.core import Params
from kaclab.chaos import (
    _DICTIONARY_DEGREES,
    _PHI,
    GRID_BINS_2D,
    _defects,
    _grid_edges,
    chaos_ladder,
    compare_to_boltzmann,
)
from kaclab.simulator import ProductGaussian, Uniform, bootstrap_weights, cell_counts
from test_simulator import run_keeping

SEED = 20260808


def pair_matrix_masses(counts, weights):
    # reference one- and two-particle cell masses from (M, cells) per-replica
    # counts, replica r entering with weight weights[r]: the ordered distinct
    # pairs of one replica fill c c^T less its diagonal c, sums of integers
    n = int(counts[0].sum())
    c = counts.astype(float)
    cw = c * weights[:, None]
    singles = cw.sum(axis=0)
    pair = cw.T @ c
    pair[np.diag_indices(c.shape[1])] -= singles
    total = weights.sum()
    return singles / (total * n), pair / (total * n * (n - 1))


def phi_cells(degree, edges):
    # a test function at each cell centre, 0 in the under/overflow cells
    out = np.zeros(edges.size + 1)
    out[1:-1] = _PHI[degree](0.5 * (edges[:-1] + edges[1:]))
    return out


def metric_from_masses(m1, m2, edges):
    # reference worst factorization defect |<phi_i x phi_j, f2> - <phi_i, f1><phi_j, f1>|
    # over the dictionary, one pair of test functions at a time
    phi = [phi_cells(d, edges) for d in range(5)]
    singles = [float(p @ m1) for p in phi]
    worst = 0.0
    for i, j in _DICTIONARY_DEGREES:
        pair_val = float(phi[i] @ m2 @ phi[j])
        worst = max(worst, abs(pair_val - singles[i] * singles[j]))
    return worst


def chaos_metric(snapshot, beta=1.0):
    # oracle: the factorization defect of the marginals of an (M, N) state
    # counted on the ladder's grid with every replica at weight 1
    v = np.asarray(snapshot, dtype=float)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("snapshot must be (replicas, particles) with at least 2 particles")
    edges = _grid_edges(beta, GRID_BINS_2D)
    return metric_from_masses(*pair_matrix_masses(cell_counts(v, edges), np.ones(len(v))), edges)


@dataclass(frozen=True)
class SeriesBound:
    """Convergence diagnostics for the correlation-expansion bound."""

    radius: float        # guaranteed absolute-convergence horizon 1/(4 lam + mu)
    growth_rate: float   # geometric factor 4 lam + 2 mu in the term bound
    arity: int

    def term_bound(self, order):
        out = 1.0
        for j in range(order):
            out *= self.growth_rate * (self.arity + j)
        return out

    def term_ratio(self, order, t):
        """Ratio of consecutive series terms t^l/l! * term_bound(l)."""
        return t * self.growth_rate * (self.arity + order) / (order + 1)


def mckean_series_radius(params, arity):
    # the correlation expansion's guaranteed convergence horizon for test
    # functions of `arity` variables, with the term-bound sequence
    if arity < 1:
        raise ValueError("arity must be >= 1")
    denom = 4.0 * params.lam + params.mu
    radius = math.inf if denom == 0.0 else 1.0 / denom
    return SeriesBound(radius=radius, growth_rate=4.0 * params.lam + 2.0 * params.mu,
                       arity=arity)


def add_at_pair_counts(snapshot, edges):
    # reference per-replica counting: searchsorted cell labels scattered with
    # np.add.at
    m, n = snapshot.shape
    idx = np.searchsorted(edges, snapshot, side="right").astype(np.int64)
    counts = np.zeros((m, edges.size + 1), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(m), n), idx.ravel()), 1)
    return counts


def marginals(snapshot, beta=1.0):
    # one- and two-particle masses on the ladder's grid, every replica weight 1
    edges = _grid_edges(beta, GRID_BINS_2D)
    return pair_matrix_masses(cell_counts(snapshot, edges), np.ones(len(snapshot))), edges


def per_draw_ladder_point(params, n_replicas, t, seed, half, n_bootstrap, bins=64):
    # reference chaos_ladder rung: its own pair counts and one multinomial draw
    # per bootstrap resample
    _, states = run_keeping(params, [0.0, t], n_replicas=n_replicas, seed=seed,
                            initial=Uniform(half))
    n = params.n_particles
    scale = 1.0 / math.sqrt(params.beta)
    edges = np.linspace(-10.0 * scale, 10.0 * scale, bins + 1)
    counts = add_at_pair_counts(states[t], edges)
    c = counts.astype(float)
    cells = bins + 2

    def masses_for(weights):
        cw = c * weights[:, None]
        m1 = cw.sum(axis=0) / (weights.sum() * n)
        pair = cw.T @ c
        pair[np.diag_indices(cells)] -= (counts * weights[:, None]).sum(axis=0)
        return m1, pair / (weights.sum() * n * (n - 1))

    metric = metric_from_masses(*masses_for(np.ones(n_replicas)), edges)
    rng = np.random.default_rng(seed + 0xC0FFEE)
    boots = [
        metric_from_masses(
            *masses_for(rng.multinomial(n_replicas, np.full(n_replicas, 1.0 / n_replicas))
                        .astype(float)), edges)
        for _ in range(n_bootstrap)
    ]
    return metric, float(np.std(boots, ddof=1))


def forced_pair_collision(rng, n_samples):
    # two-particle states: product uniform start, then exactly one collision
    v = rng.uniform(-1.0, 1.0, (n_samples, 2))
    th = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    c, s = np.cos(th), np.sin(th)
    out = np.empty_like(v)
    out[:, 0] = v[:, 0] * c + v[:, 1] * s
    out[:, 1] = -v[:, 0] * s + v[:, 1] * c
    return out


def oracle_forced_pair_metric():
    # quadrature oracle for the post-collision factorization defect of the
    # uniform product start (Gauss-Legendre in both velocities, periodic
    # rule in the angle)
    x, w = np.polynomial.legendre.leggauss(64)
    th = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    c, s = np.cos(th), np.sin(th)
    v1 = 0.5 * x[:, None, None] * c  # weight 1/2 from uniform on [-1, 1]
    v1 = x[:, None, None] * c[None, None, :]
    v2 = x[None, :, None] * s[None, None, :]
    a = v1 + v2                       # first post-collision velocity
    b = -x[:, None, None] * s + x[None, :, None] * c
    ww = 0.25 * w[:, None, None] * w[None, :, None] / th.size
    singles = {d: float(np.sum(ww * _PHI[d](a))) for d in range(5)}
    worst = 0.0
    for i, j in _DICTIONARY_DEGREES:
        pair_val = float(np.sum(ww * _PHI[i](a) * _PHI[j](b)))
        worst = max(worst, abs(pair_val - singles[i] * singles[j]))
    return worst


class TestExtractMarginals:
    def test_mass_accounting(self):
        rng = np.random.default_rng(SEED)
        snap = rng.standard_normal((200, 8))
        for masses in marginals(snap)[0]:
            assert math.isclose(float(masses.sum()), 1.0, abs_tol=1e-12)

    def test_exchangeability_bit_identical(self):
        rng = np.random.default_rng(SEED)
        snap = rng.standard_normal((50, 6)) * 1.3
        perm = rng.permutation(6)
        edges = _grid_edges(1.0, GRID_BINS_2D)
        design = bootstrap_weights(50, 4, SEED)
        assert np.array_equal(_defects(cell_counts(snap, edges), design, edges),
                              _defects(cell_counts(snap[:, perm], edges), design, edges))

    def test_product_data_factorizes(self):
        rng = np.random.default_rng(SEED)
        snap = rng.standard_normal((3000, 10))
        assert chaos_metric(snap) < 0.01

    def test_iid_data_has_no_grid_floor(self):
        # one- and pair marginals on one grid: pairing a finer one-particle
        # grid left a defect of 2.3e-3 on this exactly chaotic sample
        rng = np.random.default_rng(SEED)
        assert chaos_metric(rng.standard_normal((500, 200))) < 1e-3

    def test_equilibrium_marginal_matches_gaussian(self):
        rng = np.random.default_rng(SEED)
        snap = rng.standard_normal((5000, 10))
        (one, _), edges = marginals(snap)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        want = np.exp(-(centers**2) / 2) / math.sqrt(2 * math.pi) * width
        noise = 4.0 * np.sqrt(np.maximum(want, 1e-12) / snap.size)  # ~4 sigma per cell
        assert np.all(np.abs(one[1:-1] - want) < noise + 1e-4)

    def test_pair_masses_match_add_at_counts_bit_for_bit(self):
        rng = np.random.default_rng(SEED)
        beta = 1.7
        snap = rng.standard_normal((120, 7)) * 1.4 / math.sqrt(beta)
        (one, pair_masses), edges = marginals(snap, beta=beta)
        counts = add_at_pair_counts(snap, edges)
        c = counts.astype(float)
        pair = c.T @ c
        pair[np.diag_indices(c.shape[1])] -= counts.sum(axis=0)
        assert np.array_equal(pair_masses, pair / (120 * 7 * 6))
        want = np.bincount(np.searchsorted(edges, snap.ravel(), side="right"),
                           minlength=edges.size + 1) / snap.size
        assert np.array_equal(one, want)


class TestDefects:
    @pytest.mark.parametrize("shape", [(200, 2), (120, 7), (40, 300)])
    def test_matches_pair_matrix_oracle(self, shape):
        rng = np.random.default_rng(SEED)
        beta = 1.7
        snap = rng.standard_normal(shape) * 1.4 / math.sqrt(beta)
        edges = _grid_edges(beta, GRID_BINS_2D)
        counts = cell_counts(snap, edges)
        design = np.concatenate([bootstrap_weights(shape[0], 6, SEED),
                                 rng.integers(0, 4, (3, shape[0])).astype(float)])
        got = _defects(counts, design, edges)
        want = [metric_from_masses(*pair_matrix_masses(counts, w), edges) for w in design]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_row_zero_does_not_depend_on_the_design_size(self):
        rng = np.random.default_rng(SEED)
        snap = rng.standard_normal((300, 9))
        edges = _grid_edges(1.0, GRID_BINS_2D)
        counts = cell_counts(snap, edges)
        design = bootstrap_weights(300, 16, SEED)
        rows = [_defects(counts, design[:b], edges) for b in (1, 2, 17)]
        assert rows[0][0] == rows[1][0] == rows[2][0]
        assert rows[1][1] == rows[2][1]


class TestChaosMetric:
    def test_forced_collision_correlates(self):
        oracle = oracle_forced_pair_metric()
        assert oracle > 0.02  # the defect is real, bounded away from zero
        rng = np.random.default_rng(SEED)
        snap = forced_pair_collision(rng, 400_000)
        metric = chaos_metric(snap)
        assert metric > 0.5 * oracle
        assert abs(metric - oracle) < 0.3 * oracle

    def test_rejects_bad_snapshot(self):
        with pytest.raises(ValueError):
            chaos_metric(np.zeros(4))
        with pytest.raises(ValueError):
            chaos_metric(np.zeros((10, 1)))

    def test_equals_ladder_rung_metric(self, monkeypatch):
        # the rung scores a design of 3 rows; its row 0 is the sample alone
        monkeypatch.setattr("kaclab.chaos.BOOTSTRAP_RESAMPLES", 2)
        base = Params(n_particles=2, lam=1.0, mu=1.3, beta=0.8)
        pts = chaos_ladder(base, n_values=(3, 9), time=0.4, n_replicas=200, seed=SEED)
        half = math.sqrt(3.0 * 2.0 / base.beta)
        edges = _grid_edges(0.8, GRID_BINS_2D)
        for p in pts:
            _, states = run_keeping(Params(n_particles=p.n_particles, lam=1.0, mu=1.3, beta=0.8),
                                    [0.0, 0.4], n_replicas=200, seed=SEED,
                                    initial=Uniform(half))
            counts = cell_counts(states[0.4], edges)
            assert _defects(counts, np.ones((1, 200)), edges)[0] == p.metric
            assert math.isclose(chaos_metric(states[0.4], beta=0.8), p.metric, rel_tol=1e-12)


class TestLadder:
    def test_metric_decreases_in_system_size(self, monkeypatch):
        monkeypatch.setattr("kaclab.chaos.BOOTSTRAP_RESAMPLES", 4)
        params = Params(n_particles=2, lam=1.0, mu=1.0)
        pts = chaos_ladder(
            params,
            n_values=(4, 16, 64),
            time=1.0 / params.mu,
            n_replicas=1500,
            seed=SEED,
        )
        metrics = [p.metric for p in pts]
        assert metrics[0] > metrics[-1]
        assert all(p.stderr >= 0 for p in pts)

    def test_runs_without_thermostat_at_given_time(self, monkeypatch):
        # at mu = 0 there is no 1/mu default time: the caller gives it
        monkeypatch.setattr("kaclab.chaos.BOOTSTRAP_RESAMPLES", 2)
        pts = chaos_ladder(Params(n_particles=4, mu=0.0), n_values=(4,), time=0.5,
                           n_replicas=5, seed=SEED)
        assert [(p.n_particles, p.time) for p in pts] == [(4, 0.5)]
        assert math.isfinite(pts[0].metric)
        with pytest.raises(TypeError):
            chaos_ladder(Params(n_particles=4, mu=0.0), n_values=(4,), n_replicas=5)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_rung_of_one_particle(self):
        # one particle has no pairs: its pair masses would divide by N (N - 1) = 0
        with pytest.raises(ValueError, match="a chaos rung needs N >= 2"):
            chaos_ladder(Params(n_particles=2, lam=0.0), (4, 1), time=0.5, n_replicas=5)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_start_whose_half_width_overflows(self):
        # sqrt(3 * 1e308) is inf: the uniform start would be NaN velocities, whose
        # cells give a metric and stderr of 0
        with pytest.raises(ValueError, match="overflows"):
            chaos_ladder(Params(2), (4,), time=0.5, n_replicas=10, initial_temperature=1e308)

    def test_refuses_one_replica(self):
        # one replica gave a stderr of exactly 0
        with pytest.raises(ValueError, match="two"):
            chaos_ladder(Params(2), (4, 8), time=0.5, n_replicas=1, seed=SEED)

    def test_matches_per_draw_ladder(self, monkeypatch):
        monkeypatch.setattr("kaclab.chaos.BOOTSTRAP_RESAMPLES", 5)
        base = Params(n_particles=2, lam=1.0, mu=1.3, beta=0.8)
        pts = chaos_ladder(base, n_values=(3, 9), time=0.4, n_replicas=200, seed=SEED,
                           initial_temperature=2.0)
        half = math.sqrt(3.0 * 2.0 / base.beta)
        for p in pts:
            params = Params(n_particles=p.n_particles, lam=1.0, mu=1.3, beta=0.8)
            metric, stderr = per_draw_ladder_point(params, 200, 0.4, SEED, half, 5)
            assert math.isclose(p.metric, metric, rel_tol=1e-12)
            assert math.isclose(p.stderr, stderr, rel_tol=1e-12)


class TestBoltzmannComparison:
    def test_equilibrium_consistent(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        reports = compare_to_boltzmann(
            p, ProductGaussian(temperature=1.0), np.linspace(0.0, 1.0, 9),
            n_values=(40,), n_replicas=300, seed=SEED,
        )
        assert reports[40].max_standardized < 4.5

    def test_exact_low_moment_tracking(self):
        # m1 and m2 of the pooled ensemble obey the hierarchy exactly at any
        # finite N, so their standardized discrepancies are pure noise
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        reports = compare_to_boltzmann(
            p, ProductGaussian(temperature=2.0, mean=0.5), np.linspace(0.0, 2.0, 9),
            n_values=(30,), n_replicas=400, seed=SEED,
        )
        rep = reports[30]
        assert np.max(np.abs(rep.standardized[:, :2])) < 4.5

    def test_rejects_non_product(self):
        with pytest.raises(TypeError):
            compare_to_boltzmann(
                Params(n_particles=10, lam=1.0, mu=1.0), initial=None, sample_times=[0.0, 1.0]
            )


class TestSeriesBound:
    def test_pinned_radii(self):
        assert mckean_series_radius(Params(2, lam=1.0, mu=1.0), 1).radius == 0.2
        assert mckean_series_radius(Params(2, lam=0.0, mu=1.0), 1).radius == 1.0
        assert mckean_series_radius(Params(2, lam=0.0, mu=0.0), 3).radius == math.inf

    def test_term_bound_sequence(self):
        b = mckean_series_radius(Params(2, lam=0.5, mu=1.0), 2)
        assert b.term_bound(0) == 1.0
        assert b.term_bound(1) == b.growth_rate * 2
        assert b.term_bound(3) == b.growth_rate**3 * 2 * 3 * 4

    def test_ratio_threshold(self):
        p = Params(2, lam=1.0, mu=1.0)
        b = mckean_series_radius(p, 3)
        inner = 0.9 / b.growth_rate
        outer = 1.1 / b.growth_rate
        assert b.term_ratio(200, inner) < 1.0
        assert b.term_ratio(200, outer) > 1.0
        # below the growth threshold the ratios settle below one eventually
        ratios = [b.term_ratio(l, inner) for l in range(400)]
        assert all(r < 1.0 for r in ratios[50:])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab.core import Params
from kaclab.simulator import (
    Ensemble,
    IllConditionedFitError,
    NoEventError,
    ProductGaussian,
    TwoTemperature,
    cell_counts,
    equilibrium_start,
    fit_cooling_rate,
    initial_relative_entropy,
    run,
    sample_initial,
)

SEED = 20260808


def searchsorted_counts(values, edges):
    # oracle: per-row cell counts from searchsorted(..., "right"); cell 0 is the
    # underflow and cell bins+1 the overflow
    x = np.atleast_2d(np.asarray(values, dtype=float))
    idx = np.searchsorted(edges, x, side="right")
    return np.stack([np.bincount(row, minlength=edges.size + 1) for row in idx])


def lockstep_advance_to(ens, t):
    """The seed's two-branch lock-step `Ensemble.advance_to`, kept as the
    oracle: per-replica draws concatenated, masks rebuilt at every step."""
    dt = t - ens.time
    if dt < -1e-12:
        raise ValueError("cannot advance backwards")
    if dt <= 0.0:
        return
    p = ens.params
    n = p.n_particles
    rate = (p.lam + p.mu) * n
    m = ens.n_replicas
    counts = np.empty(m, dtype=np.int64)
    u_parts = []
    w_parts = []
    for r, rng in enumerate(ens.rngs):
        c = int(rng.poisson(rate * dt))
        counts[r] = c
        u_parts.append(rng.random((4, c)))
        w_parts.append(rng.standard_normal(c))
    u_type = np.concatenate([a[0] for a in u_parts])
    u_site = np.concatenate([a[1] for a in u_parts])
    u_pair = np.concatenate([a[2] for a in u_parts])
    u_angle = np.concatenate([a[3] for a in u_parts])
    w_all = np.concatenate(w_parts) / math.sqrt(p.beta)

    offsets = np.zeros(m, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    p_kac = p.lam / (p.lam + p.mu)
    v = ens.velocities
    rows_all = np.arange(m)
    kmax = int(counts.max()) if m else 0
    for k in range(kmax):
        act = rows_all[counts > k]
        if act.size == 0:
            break
        e = offsets[act] + k
        theta = 2.0 * math.pi * u_angle[e]
        cos_t = np.cos(theta)
        sin_t = np.sin(theta)
        kac = u_type[e] < p_kac

        rk = act[kac]
        if rk.size:
            ek = e[kac]
            i = (u_site[ek] * n).astype(np.int64)
            j = (u_pair[ek] * (n - 1)).astype(np.int64)
            j += j >= i
            a = v[rk, i]
            b = v[rk, j]
            ck, sk = cos_t[kac], sin_t[kac]
            v[rk, i] = a * ck + b * sk
            v[rk, j] = -a * sk + b * ck

        rt = act[~kac]
        if rt.size:
            et = e[~kac]
            j = (u_site[et] * n).astype(np.int64)
            v[rt, j] = v[rt, j] * cos_t[~kac] + w_all[et] * sin_t[~kac]
    ens.time = t


class TestInitialConditions:
    def test_two_temperature_layout(self):
        p = Params(n_particles=1000, lam=0.0, mu=1.0)
        rng = np.random.default_rng(SEED)
        v = sample_initial(TwoTemperature(t_hot=9.0, t_cold=0.25, n_hot=100), p, rng, 1000)
        assert 7.0 < v[:100].var() < 11.5
        assert 0.2 < v[100:].var() < 0.31

    def test_custom_sampler(self):
        p = Params(n_particles=4, lam=0.0, mu=1.0)
        v = sample_initial(lambda rng, n: np.full(n, 2.0), p, np.random.default_rng(0), 4)
        assert np.array_equal(v, np.full(4, 2.0))

    def test_initial_entropy_closed_forms(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0, beta=1.0)
        assert initial_relative_entropy(equilibrium_start(p), p) == 0.0
        got = initial_relative_entropy(ProductGaussian(temperature=2.0), p)
        assert math.isclose(got, 10 * 0.5 * (2.0 - 1.0 - math.log(2.0)), rel_tol=1e-12)
        got = initial_relative_entropy(ProductGaussian(temperature=1.0, mean=0.5), p)
        assert math.isclose(got, 10 * 0.5 * 0.25, rel_tol=1e-12)
        two = TwoTemperature(t_hot=4.0, t_cold=1.0, n_hot=3)
        assert math.isclose(
            initial_relative_entropy(two, p), 3 * 0.5 * (4.0 - 1.0 - math.log(4.0)), rel_tol=1e-12
        )


class TestEnsemble:
    def test_energy_conserved_without_thermostat(self):
        p = Params(n_particles=5, lam=2.0, mu=0.0)
        ens = Ensemble.create(p, n_replicas=16, seed=SEED, initial=ProductGaussian(2.0))
        e0 = (ens.velocities**2).sum(axis=1)
        for t in (0.5, 1.0, 2.0):
            ens.advance_to(t)
            e = (ens.velocities**2).sum(axis=1)
            assert np.max(np.abs(e / e0 - 1.0)) < 1e-12

    def test_reproducible_and_seed_sensitive(self):
        p = Params(n_particles=8, lam=1.0, mu=1.0)
        ts = np.linspace(0.0, 1.0, 33)
        a = run(p, n_replicas=32, sample_times=ts, seed=SEED, initial=ProductGaussian(2.0))
        b = run(p, n_replicas=32, sample_times=ts, seed=SEED, initial=ProductGaussian(2.0))
        c = run(p, n_replicas=32, sample_times=ts, seed=SEED + 1, initial=ProductGaussian(2.0))
        assert np.array_equal(a.kinetic_energy, b.kinetic_energy)
        assert np.array_equal(a.moments, b.moments)
        assert not np.array_equal(a.kinetic_energy, c.kinetic_energy)

    def test_replica_order_does_not_couple(self):
        # replica r's trajectory depends only on (seed, r): adding replicas
        # leaves the first ones untouched
        p = Params(n_particles=4, lam=1.0, mu=0.5)
        small = Ensemble.create(p, n_replicas=3, seed=SEED, initial=ProductGaussian(1.5))
        big = Ensemble.create(p, n_replicas=7, seed=SEED, initial=ProductGaussian(1.5))
        small.advance_to(1.0)
        big.advance_to(1.0)
        assert np.array_equal(small.velocities, big.velocities[:3])

    def test_rejects_bad_setup(self):
        with pytest.raises(NoEventError):
            Ensemble.create(Params(n_particles=2, lam=0.0, mu=0.0), 4, 0)
        with pytest.raises(ValueError):
            Ensemble.create(Params(n_particles=1, lam=1.0, mu=1.0), 4, 0)


# (N, lam, mu, beta, replicas, stops): all bath, all Kac, N = 1, N = 2, M = 1,
# intervals short enough that some (or, first, all) replicas draw no event, and
# several long intervals whose counts run over many blocks of steps
KERNEL_CASES = [
    (5, 0.0, 1.0, 1.0, 40, (0.7, 1.5)),
    (6, 1.0, 0.0, 1.0, 40, (0.4, 1.0, 2.5)),
    (1, 0.0, 2.0, 0.5, 30, (0.3, 1.0)),
    (2, 1.0, 1.0, 2.0, 50, (0.05, 0.1, 0.8)),
    (7, 1.0, 1.0, 1.0, 1, (0.5, 3.0)),
    (3, 0.5, 0.5, 1.0, 64, (1e-9, 0.01, 0.02, 0.03, 0.2)),
    (40, 10.0, 1.0, 1.0, 25, (0.3, 1.0, 1.1, 2.0)),
    (1250, 1.0, 1.0, 1.0, 6, (0.1, 0.25)),
]


class TestRotationKernel:
    """The kernel against the seed's lock-step loop: bit-identical states."""

    @pytest.mark.parametrize("n, lam, mu, beta, m, stops", KERNEL_CASES)
    def test_states_match_lockstep(self, n, lam, mu, beta, m, stops):
        p = Params(n_particles=n, lam=lam, mu=mu, beta=beta)
        init = TwoTemperature(t_hot=3.0, t_cold=0.5, n_hot=max(1, n // 3))
        new = Ensemble.create(p, n_replicas=m, seed=SEED, initial=init)
        ref = Ensemble.create(p, n_replicas=m, seed=SEED, initial=init)
        for t in stops:
            new.advance_to(t)
            lockstep_advance_to(ref, t)
            assert np.array_equal(new.velocities, ref.velocities)
            assert new.time == ref.time
        # the streams stay in step too
        assert all(a.random() == b.random() for a, b in zip(new.rngs, ref.rngs))

    def test_some_replicas_draw_no_event(self):
        p = Params(n_particles=2, lam=1.0, mu=1.0)
        probe = Ensemble.create(p, n_replicas=64, seed=SEED)
        counts = [rng.poisson(4 * 0.3) for rng in probe.rngs]  # rate (lam + mu) N = 4
        assert 0 in counts and max(counts) > 1
        ens = Ensemble.create(p, n_replicas=64, seed=SEED)
        ref = Ensemble.create(p, n_replicas=64, seed=SEED)
        ens.advance_to(0.3)
        lockstep_advance_to(ref, 0.3)
        assert np.array_equal(ens.velocities, ref.velocities)

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.0, 2.0), (3.0, 0.0)])
    def test_run_series_and_snapshots_match_lockstep(self, lam, mu, monkeypatch):
        p = Params(n_particles=9, lam=lam, mu=mu)
        kwargs = dict(n_replicas=48, sample_times=np.linspace(0, 2, 6),
                      seed=SEED, initial=ProductGaussian(2.5), snapshot_times=(0.3, 1.2))
        new = run(p, **kwargs)
        monkeypatch.setattr(Ensemble, "advance_to", lockstep_advance_to)
        ref = run(p, **kwargs)
        for name in ("kinetic_energy", "kinetic_energy_stderr", "moments", "moment_stderr"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        assert new.snapshots.keys() == ref.snapshots.keys() == {0.3, 1.2}
        for t in ref.snapshots:
            assert np.array_equal(new.snapshots[t], ref.snapshots[t])


class TestRunObservables:
    def test_equilibrium_energy_stationary(self):
        p = Params(n_particles=20, lam=1.0, mu=1.0)
        series = run(p, n_replicas=600, sample_times=np.linspace(0, 2, 5), seed=SEED)
        want = p.n_particles / (2 * p.beta)
        for k, t in enumerate(series.times):
            assert abs(series.kinetic_energy[k] - want) < 3.5 * series.kinetic_energy_stderr[k]

    def test_cooling_curve_and_fit(self):
        p = Params(n_particles=50, lam=1.0, mu=1.0)
        series = run(p, n_replicas=2000, sample_times=np.linspace(0, 4.5, 19), seed=SEED,
                     initial=ProductGaussian(temperature=2.0 / p.beta))
        k_inf = p.n_particles / (2 * p.beta)
        curve = k_inf + k_inf * np.exp(-p.mu * series.times / 2)
        assert np.all(np.abs(series.kinetic_energy - curve)
                      < 4 * series.kinetic_energy_stderr + 1e-9)
        rate = fit_cooling_rate(series)
        assert abs(rate - p.mu / 2) < 0.1 * (p.mu / 2)

    def test_snapshots_recorded(self):
        p = Params(n_particles=6, lam=1.0, mu=1.0)
        series = run(p, n_replicas=10, sample_times=[0.0, 1.0],
                     snapshot_times=[0.5, 1.0], seed=SEED)
        assert set(series.snapshots) == {0.5, 1.0}
        assert series.snapshots[0.5].shape == (10, 6)

    def test_snapshots_only(self):
        # with no sample times the stops are the snapshot times alone; t = 0
        # draws nothing, so the states equal a run that also samples there
        p = Params(n_particles=6, lam=1.0, mu=1.0)
        kwargs = dict(n_replicas=10, seed=SEED, snapshot_times=[0.5, 1.0])
        only = run(p, sample_times=(), **kwargs)
        full = run(p, sample_times=[0.0, 0.5, 1.0], **kwargs)
        assert only.times.size == 0
        assert only.kinetic_energy.shape == (0,)
        assert only.moments.shape == (0, 6)
        assert only.snapshots.keys() == full.snapshots.keys() == {0.5, 1.0}
        for t in full.snapshots:
            assert np.array_equal(only.snapshots[t], full.snapshots[t])

    @pytest.mark.parametrize("kwargs", [
        dict(sample_times=[0.0, math.nan]),
        dict(sample_times=[0.0, math.inf]),
        dict(sample_times=[0.0, 1.0], snapshot_times=[-1.0]),
        dict(sample_times=[0.0, 1.0], snapshot_times=[math.nan]),
        dict(sample_times=(), snapshot_times=()),
        dict(sample_times=[0.0, 0.0]),
    ])
    def test_rejects_non_finite_times(self, kwargs):
        p = Params(n_particles=4, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="finite"):
            run(p, n_replicas=3, seed=SEED, **kwargs)

    def test_temperature_definition(self):
        p = Params(n_particles=10, lam=0.0, mu=1.0)
        series = run(p, n_replicas=20, sample_times=[0.0], seed=SEED)
        assert np.allclose(series.temperature, 2 * series.kinetic_energy / p.n_particles)

    def test_fit_errors_at_equilibrium(self):
        p = Params(n_particles=20, lam=0.0, mu=1.0)
        series = run(p, n_replicas=200, sample_times=np.linspace(0, 4.5, 33), seed=SEED)
        with pytest.raises(IllConditionedFitError):
            fit_cooling_rate(series)

    def test_fit_errors_on_short_series(self):
        p = Params(n_particles=20, lam=0.0, mu=1.0)
        series = run(p, n_replicas=200, sample_times=np.linspace(0, 0.5, 33), seed=SEED,
                     initial=ProductGaussian(3.0))
        with pytest.raises(IllConditionedFitError):
            fit_cooling_rate(series)


EDGE_SETS = [
    np.linspace(-8.0, 8.0, 257),
    np.linspace(-10.0, 10.0, 65),
    np.linspace(-10.0, 10.0, 257) / math.sqrt(2.7),
    np.linspace(-3.0, 3.0, 8),
]


class TestCellCounts:
    @pytest.mark.parametrize("edges", EDGE_SETS)
    @pytest.mark.parametrize("shape", [(40, 300), (700, 250)])  # one block; three blocks
    def test_matches_searchsorted_on_random_points(self, edges, shape):
        rng = np.random.default_rng(SEED)
        values = rng.uniform(1.3 * edges[0], 1.3 * edges[-1], shape)
        assert np.array_equal(cell_counts(values, edges), searchsorted_counts(values, edges))

    @pytest.mark.parametrize("edges", EDGE_SETS)
    def test_matches_searchsorted_on_every_edge(self, edges):
        values = np.concatenate([
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0],
        ])
        # one row per value, so each row holds that value's cell alone
        assert np.array_equal(cell_counts(values[:, None], edges),
                              searchsorted_counts(values[:, None], edges))

    def test_top_edge_goes_to_overflow(self):
        edges = np.linspace(-8.0, 8.0, 257)
        counts = cell_counts(np.array([8.0, 0.1, 0.2]), edges)
        assert counts.shape == (258,)
        assert counts.sum() == 3
        assert counts[-1] == 1
        assert counts[0] == 0

    def test_shape_follows_leading_axes(self):
        rng = np.random.default_rng(SEED)
        values = rng.standard_normal((3, 4, 50))
        edges = np.linspace(-2.0, 2.0, 9)
        counts = cell_counts(values, edges)
        assert counts.shape == (3, 4, 10)
        assert counts.dtype == np.int64
        assert np.array_equal(counts.reshape(12, 10),
                              searchsorted_counts(values.reshape(12, 50), edges))
        assert np.array_equal(cell_counts(values[0, 0], edges), counts[0, 0])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([1.0]))

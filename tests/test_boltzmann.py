import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab import boltzmann
from kaclab.core import Params, angular_moment, gaussian_moments
from kaclab.boltzmann import (
    IntegrationError,
    MomentVector,
    integrate_moments,
    linearized_eigenvalue,
    moment_rhs,
)


def make_moments(variance, mean=0.0, order=8):
    return MomentVector(m=gaussian_moments(order, variance, mean))


def moment_rhs_by_rows(m, params):
    # oracle: the triangular convolution one row at a time
    order = m.size - 1
    g = gaussian_moments(order, 1.0 / params.beta)
    out = np.zeros_like(m)
    for n in range(order + 1):
        wk = np.array([math.comb(n, k) * angular_moment(k, n - k) for k in range(n + 1)])
        mk = m[: n + 1]
        coll = float(wk @ (mk * m[n::-1])) - m[n]
        ther = float(wk @ (mk * g[n::-1])) - m[n]
        out[n] = 2.0 * params.lam * coll + params.mu * ther
    return out


class TestMomentRhs:
    def test_first_moment_rate(self):
        # only the k in {0, 1} terms survive and the odd angular moments vanish,
        # so dm1/dt = -(2 lam + mu) m1
        p = Params(n_particles=10, lam=0.7, mu=1.3)
        m = make_moments(1.0, mean=0.5)
        rhs = moment_rhs(m.m, p)
        assert math.isclose(rhs[1], -(2 * p.lam + p.mu) * m.m[1], rel_tol=1e-13)

    def test_second_moment_rate(self):
        # collisions conserve m2; the thermostat relaxes it at rate mu/2
        for var in (0.3, 1.0, 4.0):
            p = Params(n_particles=10, lam=2.5, mu=0.8, beta=2.0)
            m = make_moments(var)
            rhs = moment_rhs(m.m, p)
            want = -(p.mu / 2.0) * (var - 1.0 / p.beta)
            assert math.isclose(rhs[2], want, rel_tol=1e-12, abs_tol=1e-14)

    def test_equilibrium_fixed_point(self):
        for beta in (0.5, 1.0, 3.0):
            p = Params(n_particles=10, lam=1.0, mu=1.0, beta=beta)
            m = make_moments(1.0 / beta)
            assert np.max(np.abs(moment_rhs(m.m, p))) < 1e-11

    def test_mass_conserved(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        assert moment_rhs(make_moments(2.0, mean=0.3).m, p)[0] == 0.0

    @given(st.integers(3, 8))
    @settings(max_examples=6, deadline=None)
    def test_triangular(self, n):
        # perturbing m_n never feeds back into lower moments
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        base = make_moments(1.5).m
        bumped = base.copy()
        bumped[n] += 0.1
        assert np.array_equal(moment_rhs(base, p)[:n], moment_rhs(bumped, p)[:n])

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_matches_row_oracle(self, beta):
        p = Params(n_particles=10, lam=0.7, mu=1.3, beta=beta)
        for order in range(1, 13):
            m = make_moments(1.7, mean=0.4, order=order).m
            want = moment_rhs_by_rows(m, p)
            got = moment_rhs(m, p)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


class TestLinearizedSpectrum:
    def test_pinned(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        assert linearized_eigenvalue(2, p) == 0.5  # the gap
        assert linearized_eigenvalue(4, p) == 0.5 + 5.0 / 8.0
        assert linearized_eigenvalue(1, p) == 3.0  # 2 lam + mu

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_gap_formulas(self, lam, mu):
        p = Params(n_particles=10, lam=lam, mu=mu)
        assert math.isclose(linearized_eigenvalue(2, p), mu / 2.0, abs_tol=1e-14)
        assert math.isclose(
            linearized_eigenvalue(4, p), lam / 2.0 + 5.0 * mu / 8.0, abs_tol=1e-14
        )

    def test_consistent_with_finite_system_gaps(self):
        # mode 2 equals the N-particle gap for every rate pair; mode 4 equals
        # the branch the second gap approaches as the system grows
        from kaclab.generator import first_gap, second_gap_limit, sector_gap_bound

        for lam, mu in [(0.2, 0.5), (1.0, 1.0), (5.0, 2.0)]:
            p = Params(n_particles=6, lam=lam, mu=mu)
            assert linearized_eigenvalue(2, p) == first_gap(p)
            branch = lam / 2.0 + 5.0 * mu / 8.0
            assert math.isclose(linearized_eigenvalue(4, p), branch, abs_tol=1e-14)
            if branch <= mu:
                big = Params(n_particles=10_000, lam=lam, mu=mu)
                assert abs(sector_gap_bound(2, big) - second_gap_limit(big)) < 1e-3


class TestIntegration:
    def test_exact_linear_solutions(self):
        p = Params(n_particles=10, lam=0.9, mu=1.1, beta=1.0)
        m0 = make_moments(2.0, mean=0.4)
        ts = np.linspace(0.0, 10.0 / p.mu, 41)
        series = integrate_moments(m0, p, ts)
        m1_exact = m0.m[1] * np.exp(-(2 * p.lam + p.mu) * ts)
        m2_exact = 1.0 / p.beta + (m0.m[2] - 1.0 / p.beta) * np.exp(-p.mu * ts / 2.0)
        assert np.max(np.abs(series.component(1) - m1_exact)) < 1e-8
        assert np.max(np.abs(series.component(2) - m2_exact)) < 1e-8

    def test_gaussian_start_stays_gaussian(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0, beta=2.0)
        m0 = make_moments(1.0 / p.beta)
        ts = np.linspace(0.0, 3.0, 13)
        series = integrate_moments(m0, p, ts)
        assert np.max(np.abs(series.values - m0.m[None, :])) < 1e-8

    def test_cooling_consistent_with_energy_law(self):
        # per-particle second moment tracks the kinetic-energy relaxation
        p = Params(n_particles=10, lam=3.0, mu=0.5, beta=0.5)
        m0 = make_moments(5.0)
        ts = np.linspace(0.0, 8.0, 17)
        series = integrate_moments(m0, p, ts)
        want = 2.0 + 3.0 * np.exp(-p.mu * ts / 2.0)
        assert np.max(np.abs(series.component(2) - want)) < 1e-8

    def test_rejects_bad_grid(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        with pytest.raises(ValueError):
            integrate_moments(make_moments(1.0), p, [0.5, 0.1])

    @pytest.mark.parametrize("kwargs", [
        dict(sample_times=[0.0, math.nan]),
        dict(sample_times=[0.0, 0.0]),
    ])
    def test_rejects_non_finite_times(self, kwargs):
        # NaN passes every ordering check
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="finite"):
            integrate_moments(make_moments(1.0), p, **kwargs)

    def test_positivity_guard_trips_on_fake_moments(self):
        # a vector violating moment positivity is rejected at the first output
        p = Params(n_particles=10, lam=0.0, mu=0.0)
        bad = np.array([1.0, 0.0, 0.1, 0.0, 10.0, 0.0, 1.0, 0.0, 0.5])
        with pytest.raises(IntegrationError):
            integrate_moments(MomentVector(m=bad), p, [0.0])

    def test_criterion_06_rhs_evaluation_count(self, monkeypatch):
        calls = []
        rhs = boltzmann.moment_rhs

        def counted(m, params):
            calls.append(None)
            return rhs(m, params)

        monkeypatch.setattr(boltzmann, "moment_rhs", counted)
        p = Params(n_particles=10, lam=0.7, mu=1.3)
        m0 = make_moments(2.0, mean=0.4)
        ts = np.linspace(0.0, 10.0 / p.mu, 41)
        integrate_moments(m0, p, ts)
        assert len(calls) == 21720

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_odd_order(self, order):
        # the top moment of an odd order stays out of the positivity check
        p = Params(n_particles=10, lam=0.9, mu=1.1, beta=1.0)
        m0 = make_moments(2.0, mean=0.4, order=order)
        ts = np.linspace(0.0, 4.0, 9)
        series = integrate_moments(m0, p, ts)
        assert series.values.shape == (9, order + 1)
        m1_exact = m0.m[1] * np.exp(-(2 * p.lam + p.mu) * ts)
        assert np.max(np.abs(series.component(1) - m1_exact)) < 1e-8

    def test_hankel_matrix_of_even_order_unchanged(self):
        m = make_moments(1.5, mean=0.2).m
        h = np.array([m[i : i + 5] for i in range(5)])
        d = np.sqrt(np.diag(h))
        want = float(np.linalg.eigvalsh(h / d[:, None] / d[None, :])[0])
        assert boltzmann._hankel_min_eig(m) == want

    def test_moment_vector_validation(self):
        with pytest.raises(ValueError):
            MomentVector(m=np.array([0.5, 0.0, 1.0]))

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab import boltzmann
from kaclab.cli import main
from kaclab.core import Params, angular_moment, gaussian_moments
from kaclab.boltzmann import (
    IntegrationError,
    MomentVector,
    integrate_moments,
    linearized_eigenvalue,
    moment_rhs,
)


# rates from 0 to 1e300, the range of the CLI's float sweep
RATES = [0.0, 1e-300, 1.0, 1e3, 1e20, 1e300]


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh if line[0] != "#"]
    return np.array(rows[1:], dtype=float)  # below the header


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
    @pytest.mark.parametrize("lam, mu", [(0.7, 1.3), (1.0, 1.0), (0.0, 2.5), (3.0, 0.0),
                                         (1e-300, 1e300), (0.75, 1.0)])
    def test_equals_the_solver_diagonal(self, lam, mu):
        # the solver takes its diagonal from linearized_eigenvalue: it must equal, to the
        # bit, the hierarchy's diagonal formed from the mixing weights, and the solver's
        # one stage solve for every odd order needs all odd rates equal to 2 lam + mu
        p = Params(n_particles=10, lam=lam, mu=mu)
        with np.errstate(over="ignore", invalid="ignore"):  # only the Gaussian rows overflow
            w = boltzmann._rhs_tables(300, p.beta)[0]
        diag = np.diagonal(w)
        want = 2.0 * lam * (1.0 - w[:, 0] - diag) + mu * (1.0 - diag)
        rates = np.array([linearized_eigenvalue(n, p) for n in range(1, 301)])
        assert np.array_equal(rates, want[1:])
        assert np.all(rates[0::2] == 2.0 * lam + mu)

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

    def test_criterion_06_step_counts(self):
        # pins the solver's cost on criterion 06's grid: a change to the method,
        # its tolerance or its controller moves these counts
        p = Params(n_particles=10, lam=0.7, mu=1.3)
        m0 = make_moments(2.0, mean=0.4)
        series = integrate_moments(m0, p, np.linspace(0.0, 10.0 / p.mu, 41))
        assert (series.accepted, series.rejected) == (455, 0)

    def test_error_estimate_matches_dense_solve(self, monkeypatch):
        # the first step's embedded error estimate (I - h gamma0 J)^-1 (h gamma0 f + slope),
        # from the solver's Jacobian rows and forward substitution, against a dense solve
        # with the Jacobian of moment_rhs by central differences, exact for a quadratic
        calls = []
        solve = boltzmann._error_solve
        monkeypatch.setattr(boltzmann, "_error_solve",
                            lambda *args: calls.append(args) or solve(*args))
        p = Params(n_particles=10, lam=0.7, mu=1.3)
        m0 = make_moments(2.0, mean=0.4, order=10)
        integrate_moments(m0, p, [0.0, 0.5])
        f, slope, lower, hg, rate = calls[0]
        e = math.frexp(max(p.lam, p.mu))[1]  # the solver's time scaling
        scaled = replace(p, lam=math.ldexp(p.lam, -e), mu=math.ldexp(p.mu, -e))
        size = m0.m.size
        jac = np.empty((size, size))
        for k, step in enumerate(1e-3 * np.maximum(1.0, np.abs(m0.m))):
            d = np.zeros(size)
            d[k] = step
            jac[:, k] = (moment_rhs(m0.m + d, scaled) - moment_rhs(m0.m - d, scaled)) / (2 * step)
        assert np.allclose(rate[1:], -np.diagonal(jac)[1:], rtol=1e-9, atol=0.0)
        for n in range(4, size, 2):
            assert np.allclose(lower[n // 2], jac[n, 2 : n - 1 : 2], rtol=1e-9, atol=0.0)
        terms = hg * np.array(f) + np.array(slope)
        want = np.linalg.solve(np.eye(size) - hg * jac, terms)
        got = np.array(solve(f, slope, lower, hg, rate))
        # the estimate is about 1e-8 of its terms, so bound the roundoff by their size;
        # dropping the Jacobian's rows moves it by about 1e-12 of that
        scale = np.max(np.abs(hg * np.array(f)) + np.abs(slope))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_agrees_with_frozen_radau_on_criterion_06(self, tmp_path):
        # the CSV that the Radau IIA solver wrote on criterion 06's grid when it formed
        # each step's stage solves with np.linalg.inv, re-run from its configuration
        # echo: the same steps, with stage solves and sums rounded differently
        frozen = Path(__file__).parent / "data" / "boltzmann_criterion06_radau.csv"
        out = tmp_path / "b.csv"
        assert main(["--config", str(frozen), "--out", str(out)]) == 0
        want, got = (read_rows(path) for path in (frozen, out))
        assert want.shape == got.shape == (41, 9)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13

    def test_agrees_with_frozen_rk4_on_criterion_06(self, tmp_path):
        # the CSV that the step-doubled RK4 integrator wrote on criterion 06's grid,
        # re-run from its own configuration echo; both solvers control the error
        # relative to max(1, |m|)
        frozen = Path(__file__).parent / "data" / "boltzmann_criterion06_rk4.csv"
        out = tmp_path / "b.csv"
        assert main(["--config", str(frozen), "--out", str(out)]) == 0
        want, got = (read_rows(path) for path in (frozen, out))
        assert want.shape == got.shape == (41, 9)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11

    @pytest.mark.parametrize("lam", RATES)
    @pytest.mark.parametrize("mu", RATES)
    def test_closed_forms_at_every_rate(self, lam, mu):
        p = Params(n_particles=10, lam=lam, mu=mu, beta=2.0)
        m0 = make_moments(2.0, mean=0.4)
        ts = np.linspace(0.0, 4.0, 33)
        series = integrate_moments(m0, p, ts)
        m1_exact = m0.m[1] * np.exp(-(2 * lam + mu) * ts)
        m2_exact = 0.5 + (m0.m[2] - 0.5) * np.exp(-mu * ts / 2.0)
        assert np.max(np.abs(series.component(1) - m1_exact)) < 1e-8
        assert np.max(np.abs(series.component(2) - m2_exact)) < 1e-8

    def test_rejects_rate_times_time_past_the_limit(self):
        p = Params(n_particles=10, lam=1e300, mu=1.0)
        with pytest.raises(ValueError, match="MAX_RATE_TIME"):
            integrate_moments(make_moments(1.0), p, [0.0, 1e300])

    def test_step_that_cannot_meet_the_error_test_raises(self, monkeypatch):
        # no step above the roundoff of t meets a tolerance of 1e-300
        monkeypatch.setattr(boltzmann, "STEP_TOL", 1e-300)
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        with pytest.raises(IntegrationError, match="meets the error test"):
            integrate_moments(make_moments(2.0, mean=0.4), p, [0.0, 1.0])

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

    @pytest.mark.parametrize("z", [0.0, 1e-300, 1e-8, 0.5, 1.0, 1.0 + 2.0**-52, 3.0, 1e8,
                                   1e300, 2.0**1003])
    def test_stage_solve_matches_inverse(self, z):
        # the closed form against LU, on both sides of its z = 1 switch and up to the
        # largest z a step can take; LU is accurate only normwise, so the tiny
        # off-diagonal couplings at large z are compared against the largest entry
        h = 0.7 if z == 0.0 else z / 1.5
        inv = np.linalg.inv(np.eye(3) + z * boltzmann._RADAU_A)
        rows, coupling = boltzmann._stage_solve(z, h)
        for got, want in [(rows, inv.sum(axis=1)),
                          (coupling, (inv @ (h * boltzmann._RADAU_A)).ravel())]:
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(np.array(got) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_hankel_matrix_of_even_order_unchanged(self):
        m = make_moments(1.5, mean=0.2).m
        h = np.array([m[i : i + 5] for i in range(5)])
        d = np.sqrt(np.diag(h))
        want = float(np.linalg.eigvalsh(h / d[:, None] / d[None, :])[0])
        assert boltzmann._hankel_min_eig(m) == want

    def test_moment_vector_validation(self):
        with pytest.raises(ValueError):
            MomentVector(m=np.array([0.5, 0.0, 1.0]))

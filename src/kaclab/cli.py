"""Command-line entry point: reproducible runs of every verb, CSV out.

Configuration comes from flags and/or a line-oriented `key = value` file
(flags win).  The full effective configuration is echoed as `#` comments at
the top of every CSV, in the same `key = value` format, so an output file can
be re-parsed into the exact configuration that produced it.

Exit codes: 0 success, 2 usage error, 3 numerical-assertion failure,
4 I/O failure.  A usage error is a malformed or out-of-domain option, or an
input the library refuses with a `ValueError`: each model rule is stated once,
in the function that depends on it, and reported here.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .boltzmann import IntegrationError, MomentVector, integrate_moments
from .chaos import chaos_ladder
from .core import Params, gaussian_moments
from .entropy import EntropyCheckError, entropy_decay_experiment
from .generator import AssemblyError, first_gap, second_gap, second_gap_limit
# not called here: perfbench/spans.py wraps them where kaclab.cli looks them up
from .generator import build_generator, sector_basis  # noqa: F401
from .simulator import (
    N_MOMENTS,
    ObservableSeries,
    ProductGaussian,
    SimulationError,
    TwoTemperature,
    cell_counts,
    observables,
    run,
    workspace_doubles,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTDIR_ENV = "KACLAB_OUTDIR"

HISTOGRAM_BINS = 256
HISTOGRAM_HALF_WIDTH = 8.0  # in units of the equilibrium standard deviation
# expected simulator events per run: about 20 times criterion 05's 4.8e7, and
# about two minutes at the 80-105 ns per event that `advance_to` takes at N = 100
# and M = 1000 on a 2-core x86-64 host (M = 1 costs far more per event)
MAX_EVENTS = 1e9
# doubles a run may hold at once: 2 GiB
MAX_DOUBLES = 2**28
# held per replica besides its velocities: the simulator's per-window counts
# and orderings (about 10 doubles), the estimators' bootstrap weights for the
# whole run (`entropy.BOOTSTRAP_RESAMPLES` + 1 doubles), and at a stop the entropy
# estimator's cell counts (258 doubles), or the chaos counts
REPLICA_DOUBLES = 1024


class UsageError(ValueError):
    pass


# a key's domain: a predicate on its converted value, and what the value must be
_ABOVE_0 = (lambda x: x > 0, "> 0")
_AT_LEAST_0 = (lambda x: x >= 0, ">= 0")
_AT_LEAST_1 = (lambda x: x >= 1, ">= 1")
_AT_LEAST_2 = (lambda x: x >= 2, ">= 2")
_SEED = (lambda x: 0 <= x < 2**64, "in [0, 2**64)")
_ANY = (lambda x: True, "")


def _is_ladder(text: str) -> bool:
    try:
        return all(2 <= int(x) <= sys.float_info.max for x in text.split(","))
    except ValueError:
        return False


_LADDER = (_is_ladder, "a comma list of integers >= 2 in the float range")

# schema: key -> (python type, default, required, domain); every number must
# also be finite as a float
_COMMON = {
    "lam": (float, 1.0, False, _AT_LEAST_0),
    "mu": (float, 1.0, False, _AT_LEAST_0),
    "beta": (float, 1.0, False, _ABOVE_0),
    "seed": (int, 0, False, _SEED),
    "out": (str, None, False, _ANY),
}

_SCHEMAS: dict[str, dict] = {
    "simulate": {
        **_COMMON,
        "n": (int, None, True, _AT_LEAST_1),
        "replicas": (int, 1000, False, _AT_LEAST_1),
        "horizon": (float, 4.0, False, _ABOVE_0),
        "samples": (int, 33, False, _AT_LEAST_1),
        "k0": (float, None, False, _AT_LEAST_0),
        "t_hot": (float, None, False, _AT_LEAST_0),
        "t_cold": (float, None, False, _AT_LEAST_0),
        "n_hot": (int, None, False, _ANY),
        "histogram_out": (str, None, False, _ANY),
    },
    "spectrum": {
        **_COMMON,
        "n": (int, None, True, _AT_LEAST_2),
    },
    "boltzmann": {
        **_COMMON,
        "horizon": (float, 4.0, False, _ABOVE_0),
        "samples": (int, 33, False, _AT_LEAST_1),
        "kmax": (int, 8, False, _AT_LEAST_0),
        "t0": (float, 2.0, False, _AT_LEAST_0),
        "mean": (float, 0.0, False, _ANY),
    },
    "entropy": {
        **_COMMON,
        "n": (int, None, True, _AT_LEAST_1),
        "mu": (float, None, True, _AT_LEAST_0),
        "replicas": (int, 2000, False, _AT_LEAST_1),
        "horizon": (float, 6.0, False, _ABOVE_0),
        "samples": (int, 13, False, _AT_LEAST_1),
        # the initial relative entropy takes log(beta * T)
        "t_hot": (float, 4.0, False, _ABOVE_0),
        "t_cold": (float, 0.5, False, _ABOVE_0),
        "n_hot": (int, None, False, _ANY),
    },
    "chaos": {
        **_COMMON,
        "replicas": (int, 2000, False, _AT_LEAST_1),
        "time": (float, None, False, _ABOVE_0),
        "n_ladder": (str, "10,50,250,1250", False, _LADDER),
        "t0": (float, 2.0, False, _AT_LEAST_0),
    },
}

_FLAG_ALIASES = {"lambda": "lam"}


@dataclass(frozen=True)
class RunConfig:
    verb: str
    options: dict = field(default_factory=dict)

    def as_lines(self) -> list[str]:
        lines = [f"verb = {self.verb}"]
        for key in sorted(self.options):
            value = self.options[key]
            if value is None:
                continue
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        return lines

    def params(self) -> Params:
        o = self.options
        n = o.get("n")
        return Params(n_particles=1 if n is None else n, lam=o["lam"], mu=o["mu"], beta=o["beta"])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _flag_to_key(flag: str) -> str:
    name = flag.lstrip("-").replace("-", "_")
    return _FLAG_ALIASES.get(name, name)


def _convert(key: str, raw: str, typ):
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise UsageError(f"malformed value for '{key}': {raw!r}")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out: dict[str, str] = {}
    after_echo = False
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        echo = stripped.startswith("#")
        if echo:
            stripped = stripped.lstrip("#").strip()
        if not stripped:
            continue
        if "=" not in stripped:
            # the header of a CSV whose `#` lines echo its configuration: data rows follow
            if after_echo and not echo and not any("=" in rest for rest in lines[lineno:]):
                break
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        after_echo = echo
        key, _, raw = stripped.partition("=")
        out[_flag_to_key(key.strip())] = raw.strip()
    return out


def _usage() -> str:
    verbs = ", ".join(sorted(_SCHEMAS))
    return (
        "usage: kaclab VERB [--key value ...] [--config FILE]\n"
        f"verbs: {verbs}\n"
        "flags mirror the config keys (e.g. --n, --lambda, --mu, --beta, --seed, --out)"
    )


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve verb and options from argv plus an optional config file;
    explicit flags override file values, which override defaults."""
    cli_pairs: dict[str, str] = {}
    verb = None
    config_path = None
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            if verb is not None:
                raise UsageError(f"unexpected positional argument {tok!r}")
            verb = tok
            continue
        flag, eq, raw = tok.partition("=")
        if not eq:
            raw = next(tokens, None)
            if raw is None:
                raise UsageError(f"flag {flag!r} needs a value")
        key = _flag_to_key(flag)
        if key == "config":
            config_path = raw
        else:
            cli_pairs[key] = raw

    file_pairs = _read_config_file(config_path) if config_path else {}
    if verb is None:
        verb = file_pairs.pop("verb", None)
        if verb is None:
            raise UsageError("no verb given (and none in the config file)")
    else:
        file_pairs.pop("verb", None)

    schema = _SCHEMAS.get(verb)
    if schema is None:
        raise UsageError(f"unknown verb {verb!r}")

    merged: dict[str, str] = dict(file_pairs)
    merged.update(cli_pairs)
    options: dict = {}
    for key, raw in merged.items():
        if key not in schema:
            raise UsageError(f"unknown key '{key}' for verb '{verb}'")
        typ, _, _, (ok, text) = schema[key]
        value = options[key] = _convert(key, raw, typ)
        # a number past the float range (nan, inf, a huge int) would overflow the checks below
        _require(typ is str or abs(value) <= sys.float_info.max,
                 f"'{key}' must be finite, got {raw!r}")
        _require(ok(value), f"'{key}' must be {text}, got {raw!r}")
    for key, (_, default, required, _) in schema.items():
        if key not in options:
            if required:
                raise UsageError(f"missing required key '{key}' for verb '{verb}'")
            options[key] = default
    return RunConfig(verb=verb, options=options)


def _format_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def emit_csv(path: str, header: list[str], rows, comments=()) -> None:
    """UTF-8 CSV with a `#` config comment block and deterministic formatting."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(x) for x in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _out_path(config: RunConfig, key: str) -> str:
    path = config.options.get(key)
    if path:
        return path
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, f"{config.verb}.csv")


def _initial_from_options(config: RunConfig, params: Params):
    """Two-temperature start if any of t_hot, t_cold or n_hot is set (the
    others then default to 4/beta, 1/beta and N // 10, at least 1), else a
    product Gaussian at temperature 2 k0 / N or 1/beta."""
    o = config.options
    t_hot, t_cold, n_hot = (o.get(k) for k in ("t_hot", "t_cold", "n_hot"))
    if t_hot is None and t_cold is None and n_hot is None:
        if o.get("k0") is not None:
            return ProductGaussian(temperature=2.0 * o["k0"] / params.n_particles)
        return ProductGaussian(temperature=1.0 / params.beta)
    _require(o.get("k0") is None, "'k0' cannot be combined with 't_hot', 't_cold' or 'n_hot'")
    n_hot = max(1, params.n_particles // 10) if n_hot is None else n_hot
    return TwoTemperature(t_hot=4.0 / params.beta if t_hot is None else t_hot,
                          t_cold=1.0 / params.beta if t_cold is None else t_cold, n_hot=n_hot)


def _require_work(params: Params, rows: int, columns: int, n_values=(), replicas: int = 0,
                  time: float = 0.0) -> None:
    """The verb's work estimate.  The expected event count (lambda + mu) N M T of
    a simulation of `replicas` replicas to `time` at each N in `n_values`, summed
    over `n_values`, is at most MAX_EVENTS.
    The doubles held at once are at most MAX_DOUBLES: the CSV cells, and at the
    largest N the simulator's workspace (the state and one window of events)
    and REPLICA_DOUBLES per replica.  The state is reduced where the simulator
    stops, so no copy of it is charged."""
    # in floats, which saturate at inf; parse_config keeps every count below the largest
    m, n = float(replicas), float(max(n_values, default=0))
    events = (params.lam + params.mu) * sum(map(float, n_values)) * m * time
    _require(events <= MAX_EVENTS, f"the expected event count (lambda + mu) N M T = "
             f"{events:.3g} exceeds MAX_EVENTS = {MAX_EVENTS:.3g}")
    held = float(rows) * columns
    if n_values:
        held += m * REPLICA_DOUBLES + workspace_doubles(m, n)
    _require(held <= MAX_DOUBLES, f"the doubles held at once (state, event window, "
             f"per-replica arrays and CSV cells) = {held:.3g} exceed MAX_DOUBLES = "
             f"{MAX_DOUBLES:.3g}")


def _last_time(config: RunConfig) -> float:
    """The last of the verb's sample times: `horizon`, or 0 for one sample."""
    return config.options["horizon"] if config.options["samples"] > 1 else 0.0


def _sample_times(config: RunConfig) -> np.ndarray:
    """The verb's `samples` equally spaced times from 0 to `horizon`, which must be
    distinct; called after `_require_work` has bounded `samples`."""
    o = config.options
    times = np.linspace(0.0, o["horizon"], o["samples"])
    _require(np.all(np.diff(times) > 0), f"'horizon' = {o['horizon']!r} is too small to "
             f"hold 'samples' = {o['samples']} distinct times")
    return times


def _pooled_counts(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """cell_counts of every value of `v` pooled, whole replicas (rows) of about 65536
    values at a time: cell_counts holds a few temporaries the size of its input,
    and per-replica counts would hold 258 doubles per replica."""
    rows = max(1, 65536 // v.shape[1])
    return sum(cell_counts(v[r : r + rows].reshape(-1), edges) for r in range(0, len(v), rows))


def _run_simulate(config: RunConfig, params: Params) -> list:
    o = config.options
    hist_out = o.get("histogram_out")
    header = ["time", "K", "T"] + [f"m{q}" for q in range(1, 7)]
    _require_work(params, o["samples"], len(header), n_values=[params.n_particles],
                  replicas=o["replicas"], time=_last_time(config))
    initial = _initial_from_options(config, params)
    temps = ([initial.t_hot, initial.t_cold] if isinstance(initial, TwoTemperature)
             else [initial.temperature])
    order = 2 * N_MOMENTS  # observables forms the variance of the highest moment
    _require(all(np.isfinite(gaussian_moments(order, t)).all()
                 for t in [*temps, 1.0 / params.beta]),
             f"the Gaussian moments up to order {order} at the initial or bath "
             "temperature overflow")
    times = _sample_times(config)
    width = HISTOGRAM_HALF_WIDTH * (1.0 / math.sqrt(params.beta))
    edges = np.linspace(-width, width, HISTOGRAM_BINS + 1)
    observed, masses = [], []

    def observe(t, v):
        observed.append(observables(v))
        if hist_out and t == times[-1]:
            masses.append(_pooled_counts(v, edges) / v.size)

    run(params, n_replicas=o["replicas"], times=times, observe=observe, seed=o["seed"],
        initial=initial)
    series = ObservableSeries.from_rows(params, times, observed)
    rows = [
        (t, series.kinetic_energy[k], series.temperature[k], *series.moments[k])
        for k, t in enumerate(series.times)
    ]
    files = [("out", header, rows)]
    if hist_out:
        hrows = [(edges[b], edges[b + 1], masses[0][b + 1]) for b in range(HISTOGRAM_BINS)]
        files.append(("histogram_out", ["bin_left", "bin_right", "mass"], hrows))
    return files


def _run_spectrum(config: RunConfig, params: Params) -> list:
    """The first gap and, at mu > 0, each route `second_gap` checked and the
    large-N limit, each computed once; `first_gap` refuses rates at which its
    degree-4 sector cannot be told from the gap."""
    values = []
    if params.mu > 0:
        gap = second_gap(params)
        values = [("second_quadratic", gap.quadratic), ("second_matrix", gap.matrix),
                  ("second_sector", gap.sector), ("second_limit", second_gap_limit(params))]
    rows = [(params.n_particles, params.lam, params.mu, route, x)
            for route, x in [("first", first_gap(params)), *values]]
    return [("out", ["N", "lambda", "mu", "route", "value"], rows)]


def _run_boltzmann(config: RunConfig, params: Params) -> list:
    o = config.options
    order = o["kmax"]
    _require_work(params, o["samples"], order + 1)  # before the header of kmax + 1 names
    m0 = MomentVector(m=gaussian_moments(order, o["t0"], o["mean"]))
    series = integrate_moments(m0, params, _sample_times(config))
    header = ["time"] + [f"m{q}" for q in range(1, order + 1)]
    rows = [(t, *series.values[k, 1:]) for k, t in enumerate(series.times)]
    return [("out", header, rows)]


def _run_entropy(config: RunConfig, params: Params) -> list:
    o = config.options
    header = ["t", "S_estimate", "S_error", "bound"]
    _require_work(params, o["samples"], len(header), n_values=[params.n_particles],
                  replicas=o["replicas"], time=_last_time(config))
    series = entropy_decay_experiment(
        params,
        _initial_from_options(config, params),
        _sample_times(config),
        n_replicas=o["replicas"],
        seed=o["seed"],
    )
    rows = [
        (t, series.estimate[k], series.stderr[k], series.bound[k])
        for k, t in enumerate(series.times)
    ]
    return [("out", header, rows)]


def _run_chaos(config: RunConfig, params: Params) -> list:
    o = config.options
    time = o["time"]
    if time is None:
        _require(params.mu > 0 and math.isfinite(1.0 / params.mu),
                 "'time' defaults to 1/mu, which is not finite: give 'time'")
        time = 1.0 / params.mu
    ladder = tuple(int(x) for x in o["n_ladder"].split(","))
    header = ["N", "t", "metric", "stderr"]
    _require_work(params, len(ladder), len(header), n_values=ladder, replicas=o["replicas"],
                  time=time)
    points = chaos_ladder(
        params,
        n_values=ladder,
        time=time,
        n_replicas=o["replicas"],
        seed=o["seed"],
        initial_temperature=o["t0"],
    )
    rows = [(p.n_particles, p.time, p.metric, p.stderr) for p in points]
    return [("out", header, rows)]


# each runner returns its files as (the option naming the path, header, rows)
_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "boltzmann": _run_boltzmann,
    "entropy": _run_entropy,
    "chaos": _run_chaos,
}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args or args[0] in ("-h", "--help"):
        print(_usage())
        return EXIT_OK
    try:
        config = parse_config(args)
    except UsageError as exc:
        print(f"error: {exc}\n{_usage()}", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = config.params()
        for key, header, rows in _RUNNERS[config.verb](config, params):
            emit_csv(_out_path(config, key), header, rows, config.as_lines())
    except ValueError as exc:  # a UsageError, or an input the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssemblyError, IntegrationError, EntropyCheckError, SimulationError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

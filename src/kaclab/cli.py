"""Command-line entry point: reproducible runs of every verb, CSV out.

Configuration comes from flags and/or a line-oriented `key = value` file
(flags win).  The full effective configuration is echoed as `#` comments at
the top of every CSV, in the same `key = value` format, so an output file can
be re-parsed into the exact configuration that produced it.

Exit codes: 0 success, 2 usage error, 3 numerical-assertion failure,
4 I/O failure.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .boltzmann import IntegrationError, MomentVector, integrate_moments
from .chaos import chaos_ladder
from .core import Params, gaussian_moment
from .entropy import EntropyCheckError, EstimatorError, entropy_decay_experiment
from .generator import (
    AssemblyError,
    first_gap,
    second_gap,
    second_gap_limit,
    second_gap_matrix,
    second_gap_quadratic,
    build_generator,
    sector_basis,
)
from .simulator import ProductGaussian, SimulationError, TwoTemperature, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTDIR_ENV = "KACLAB_OUTDIR"


class UsageError(Exception):
    pass


# schema: key -> (python type, default, required)
_COMMON = {
    "n": (int, None, False),
    "lam": (float, 1.0, False),
    "mu": (float, 1.0, False),
    "beta": (float, 1.0, False),
    "seed": (int, 0, False),
    "out": (str, None, False),
}

_SCHEMAS: dict[str, dict] = {
    "simulate": {
        **_COMMON,
        "n": (int, None, True),
        "replicas": (int, 1000, False),
        "horizon": (float, 4.0, False),
        "samples": (int, 33, False),
        "k0": (float, None, False),
        "t_hot": (float, None, False),
        "t_cold": (float, None, False),
        "n_hot": (int, None, False),
        "histogram_out": (str, None, False),
    },
    "spectrum": {
        **_COMMON,
        "n": (int, None, True),
    },
    "boltzmann": {
        **_COMMON,
        "horizon": (float, 4.0, False),
        "samples": (int, 33, False),
        "kmax": (int, 8, False),
        "t0": (float, 2.0, False),
        "mean": (float, 0.0, False),
    },
    "entropy": {
        **_COMMON,
        "n": (int, None, True),
        "mu": (float, None, True),
        "replicas": (int, 2000, False),
        "horizon": (float, 6.0, False),
        "samples": (int, 13, False),
        "t_hot": (float, 4.0, False),
        "t_cold": (float, 0.5, False),
        "n_hot": (int, None, False),
    },
    "chaos": {
        **_COMMON,
        "replicas": (int, 2000, False),
        "time": (float, None, False),
        "n_ladder": (str, "10,50,250,1250", False),
        "t0": (float, 2.0, False),
    },
}

_FLAG_ALIASES = {"lambda": "lam"}

# options the library rejects with a ValueError unless positive
_POSITIVE = {"replicas", "samples", "horizon", "time"}


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
        try:
            params = Params(n_particles=1 if n is None else n, lam=o["lam"], mu=o["mu"],
                            beta=o["beta"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _require(n is None or n >= 2 or params.lam == 0.0, "pair collisions need n >= 2")
        return params


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _require_temperature(key: str, value: float, positive: bool = False) -> None:
    ok = math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)
    _require(ok, f"'{key}' must be finite and {'> 0' if positive else '>= 0'}, got {value!r}")


def _require_n_hot(n_hot: int, n: int) -> None:
    _require(0 <= n_hot <= n, f"'n_hot' must lie in [0, {n}], got {n_hot}")


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
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            stripped = stripped.lstrip("#").strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
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
    args = list(argv)
    cli_pairs: dict[str, str] = {}
    verb = None
    config_path = None
    i = 0
    while i < len(args):
        tok = args[i]
        if not tok.startswith("-"):
            if verb is not None:
                raise UsageError(f"unexpected positional argument {tok!r}")
            verb = tok
            i += 1
            continue
        if "=" in tok:
            flag, _, raw = tok.partition("=")
        else:
            flag = tok
            if i + 1 >= len(args):
                raise UsageError(f"flag {flag!r} needs a value")
            raw = args[i + 1]
            i += 1
        key = _flag_to_key(flag)
        if key == "config":
            config_path = raw
        else:
            cli_pairs[key] = raw
        i += 1

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
        options[key] = _convert(key, raw, schema[key][0])
        _require(key not in _POSITIVE or options[key] > 0, f"'{key}' must be positive, got {raw!r}")
        _require(key != "seed" or 0 <= options[key] < 2**64,
                 f"'seed' must lie in [0, 2**64), got {raw!r}")
    for key, (_, default, required) in schema.items():
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


def _out_path(config: RunConfig) -> str:
    path = config.options.get("out")
    if path:
        return path
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, f"{config.verb}.csv")


def _initial_from_options(config: RunConfig, params: Params):
    o = config.options
    if o.get("t_hot") is not None or o.get("n_hot") is not None:
        n_hot = o.get("n_hot")
        if n_hot is None:
            n_hot = max(1, params.n_particles // 10)
        initial = TwoTemperature(
            t_hot=o.get("t_hot") if o.get("t_hot") is not None else 4.0 / params.beta,
            t_cold=o.get("t_cold") if o.get("t_cold") is not None else 1.0 / params.beta,
            n_hot=n_hot,
        )
        _require_temperature("t_hot", initial.t_hot)
        _require_temperature("t_cold", initial.t_cold)
        _require_n_hot(n_hot, params.n_particles)
        return initial
    if o.get("k0") is not None:
        _require_temperature("k0", o["k0"])
        return ProductGaussian(temperature=2.0 * o["k0"] / params.n_particles)
    return ProductGaussian(temperature=1.0 / params.beta)


def _run_simulate(config: RunConfig) -> None:
    params = config.params()
    o = config.options
    times = np.linspace(0.0, o["horizon"], o["samples"])
    series = run(
        params,
        n_replicas=o["replicas"],
        horizon=o["horizon"],
        sample_times=times,
        seed=o["seed"],
        initial=_initial_from_options(config, params),
    )
    header = ["time", "K", "T"] + [f"m{q}" for q in range(1, 7)]
    rows = [
        (t, series.kinetic_energy[k], series.temperature[k], *series.moments[k])
        for k, t in enumerate(series.times)
    ]
    emit_csv(_out_path(config), header, rows, config.as_lines())
    if o.get("histogram_out"):
        edges = series.histogram_edges
        hrows = [
            (edges[b], edges[b + 1], series.histogram[-1][b])
            for b in range(edges.size - 1)
        ]
        emit_csv(o["histogram_out"], ["bin_left", "bin_right", "mass"], hrows,
                 config.as_lines())


def _run_spectrum(config: RunConfig) -> None:
    params = config.params()
    _require(params.n_particles >= 2, "spectrum needs n >= 2")
    rows = []
    gap1 = first_gap(params)
    rows.append((params.n_particles, params.lam, params.mu, "first", gap1.value))
    if params.mu > 0:
        value = second_gap(params)  # raises AssemblyError if routes disagree
        rows.append((params.n_particles, params.lam, params.mu, "second_quadratic",
                     second_gap_quadratic(params)))
        rows.append((params.n_particles, params.lam, params.mu, "second_matrix",
                     float(np.linalg.eigvalsh(second_gap_matrix(params))[0])))
        sect = build_generator(sector_basis(params.n_particles, 2, symmetric=True), params)
        rows.append((params.n_particles, params.lam, params.mu, "second_sector",
                     float(sect.eigenvalues()[0])))
        rows.append((params.n_particles, params.lam, params.mu, "second_limit",
                     second_gap_limit(params)))
    emit_csv(_out_path(config), ["N", "lambda", "mu", "route", "value"], rows,
             config.as_lines())


def _run_boltzmann(config: RunConfig) -> None:
    params = config.params()
    o = config.options
    _require_temperature("t0", o["t0"])
    _require(math.isfinite(o["mean"]), f"'mean' must be finite, got {o['mean']!r}")
    order = o["kmax"]
    _require(order >= 0, f"'kmax' must be >= 0, got {order}")
    m0 = MomentVector(
        m=np.array([gaussian_moment(q, o["t0"], o["mean"]) for q in range(order + 1)])
    )
    times = np.linspace(0.0, o["horizon"], o["samples"])
    series = integrate_moments(m0, params, horizon=o["horizon"], sample_times=times)
    header = ["time"] + [f"m{q}" for q in range(1, order + 1)]
    rows = [(t, *series.values[k, 1:]) for k, t in enumerate(series.times)]
    emit_csv(_out_path(config), header, rows, config.as_lines())


def _run_entropy(config: RunConfig) -> None:
    params = config.params()
    o = config.options
    n_hot = o["n_hot"] if o["n_hot"] is not None else max(1, params.n_particles // 10)
    # the initial relative entropy takes log(beta * T): both temperatures must be > 0
    _require_temperature("t_hot", o["t_hot"], positive=True)
    _require_temperature("t_cold", o["t_cold"], positive=True)
    _require_n_hot(n_hot, params.n_particles)
    initial = TwoTemperature(t_hot=o["t_hot"], t_cold=o["t_cold"], n_hot=n_hot)
    series = entropy_decay_experiment(
        params,
        initial,
        horizon=o["horizon"],
        n_replicas=o["replicas"],
        sample_times=np.linspace(0.0, o["horizon"], o["samples"]),
        seed=o["seed"],
    )
    rows = [
        (t, series.estimate[k], series.stderr[k], series.bound[k])
        for k, t in enumerate(series.times)
    ]
    emit_csv(_out_path(config), ["t", "S_estimate", "S_error", "bound"], rows,
             config.as_lines())


def _run_chaos(config: RunConfig) -> None:
    params = config.params()
    o = config.options
    try:
        ladder = tuple(int(x) for x in o["n_ladder"].split(","))
    except ValueError:
        raise UsageError(f"malformed value for 'n_ladder': {o['n_ladder']!r}")
    _require(min(ladder) >= 2, "every size in n_ladder must be >= 2")
    _require_temperature("t0", o["t0"])
    points = chaos_ladder(
        params,
        n_values=ladder,
        time=o["time"],
        n_replicas=o["replicas"],
        seed=o["seed"],
        initial_temperature=o["t0"],
    )
    rows = [(p.n_particles, p.time, p.metric, p.stderr) for p in points]
    emit_csv(_out_path(config), ["N", "t", "metric", "stderr"], rows, config.as_lines())


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
        _RUNNERS[config.verb](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssemblyError, IntegrationError, EntropyCheckError, EstimatorError,
            SimulationError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

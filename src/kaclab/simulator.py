"""Exact event-driven simulation of the N-particle velocity jump process.

Two event types drive the chain: pair collisions (rate lam*N total; a uniform
unordered pair is rotated by a uniform angle, which preserves its kinetic
energy) and thermostat collisions (rate mu*N total; one particle is rotated
against a fresh Gaussian partner that is never seen again).

`step` realizes one jump with its exponential waiting time.  `run` evolves an
ensemble of independent replicas to a sampling grid: for each replica and grid
interval it draws the Poisson event count and then the event sequence, which
is the same process read at the grid times (the embedded chain is independent
of the jump epochs).  Every replica owns a counter-based Philox stream keyed
by (master seed, replica index); results are bit-reproducible for a given
seed and configuration.

`Ensemble.advance_to` applies one interval with one rotation kernel for both
event types:

- Draws, in two passes: first every replica's Poisson count c, then each
  replica's 4c uniforms (rows type, site, pair, angle) and c normals, written
  straight into one buffer.  Each stream sees poisson -> uniforms -> normals.
- Bath slots: the workspace is the M*N state followed by one slot per event
  holding its normal over sqrt(beta).  An event rotates site I against J,
  a' = a cos + b sin, b' = -a sin + b cos, where J is the pair partner of a
  Kac event and the event's own bath slot for a thermostat event, so a
  thermostat collision is a Kac rotation against a fresh bath particle.
- Prefix lock-step: replicas are sorted by descending count, so the replicas
  that still have an event at step k form a prefix.  For each block of
  BLOCK_STEPS steps I, J, cos and sin are gathered once; each step then
  applies one slice of them to all active replicas at once (two gathers, two
  scatters), with no branch on the event type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Params

HISTOGRAM_BINS = 256
HISTOGRAM_HALF_WIDTH = 8.0  # in units of the equilibrium standard deviation
N_MOMENTS = 6
BLOCK_STEPS = 64  # lock-step iterations whose events are gathered at once


class SimulationError(RuntimeError):
    pass


class NoEventError(SimulationError):
    """lam = mu = 0: the waiting time is infinite."""


class IllConditionedFitError(SimulationError):
    """The energy series carries no usable decay signal."""


# ---------------------------------------------------------------------------
# initial conditions

@dataclass(frozen=True)
class ProductGaussian:
    """Independent particles at one temperature (variance = temperature)."""

    temperature: float
    mean: float = 0.0


@dataclass(frozen=True)
class TwoTemperature:
    """First n_hot particles at t_hot, the rest at t_cold; product Gaussian."""

    t_hot: float
    t_cold: float
    n_hot: int


InitialCondition = ProductGaussian | TwoTemperature | Callable


def sample_initial(initial: InitialCondition, params: Params, rng: np.random.Generator,
                   n: int) -> np.ndarray:
    if isinstance(initial, ProductGaussian):
        return initial.mean + math.sqrt(initial.temperature) * rng.standard_normal(n)
    if isinstance(initial, TwoTemperature):
        if not 0 <= initial.n_hot <= n:
            raise ValueError(f"n_hot must lie in [0, {n}], got {initial.n_hot}")
        v = rng.standard_normal(n)
        v[: initial.n_hot] *= math.sqrt(initial.t_hot)
        v[initial.n_hot :] *= math.sqrt(initial.t_cold)
        return v
    if callable(initial):
        v = np.asarray(initial(rng, n), dtype=float)
        if v.shape != (n,):
            raise ValueError(f"sampler must return shape ({n},), got {v.shape}")
        return v
    raise TypeError(f"unsupported initial condition {initial!r}")


def equilibrium_start(params: Params) -> ProductGaussian:
    return ProductGaussian(temperature=1.0 / params.beta)


def initial_relative_entropy(initial: InitialCondition, params: Params) -> float:
    """Closed-form relative entropy of the product initial law w.r.t. the
    equilibrium product Gaussian."""

    def gauss_term(temperature: float, mean: float = 0.0) -> float:
        x = params.beta * temperature
        return 0.5 * (x - 1.0 - math.log(x)) + 0.5 * params.beta * mean**2

    n = params.n_particles
    if isinstance(initial, ProductGaussian):
        return n * gauss_term(initial.temperature, initial.mean)
    if isinstance(initial, TwoTemperature):
        return initial.n_hot * gauss_term(initial.t_hot) + (n - initial.n_hot) * gauss_term(
            initial.t_cold
        )
    raise TypeError("closed-form entropy available for product Gaussian data only")


# ---------------------------------------------------------------------------
# single-jump kernel

def step(state, params: Params, rng: np.random.Generator):
    """One jump of the chain: returns (new state, exponential waiting time)."""
    v = np.array(state, dtype=float)
    n = v.size
    lam, mu = params.lam, params.mu
    if lam + mu == 0.0:
        raise NoEventError("lam = mu = 0 gives an infinite waiting time")
    if lam > 0.0 and n < 2:
        raise ValueError("pair collisions need N >= 2")
    wait = rng.exponential(1.0 / ((lam + mu) * n))
    theta = 2.0 * math.pi * rng.random()
    c, s = math.cos(theta), math.sin(theta)
    if rng.random() < lam / (lam + mu):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        j += j >= i
        vi, vj = v[i], v[j]
        v[i] = vi * c + vj * s
        v[j] = -vi * s + vj * c
    else:
        j = int(rng.integers(n))
        w = rng.normal(0.0, 1.0 / math.sqrt(params.beta))
        v[j] = v[j] * c + w * s
    return v, wait


# ---------------------------------------------------------------------------
# ensemble

def _replica_rngs(seed: int, n_replicas: int) -> list[np.random.Generator]:
    if seed < 0 or seed > 2**64 - 1:
        raise ValueError("seed must fit in 64 bits")
    return [
        np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
        for r in range(n_replicas)
    ]


@dataclass
class Ensemble:
    """Independent replicas of the N-particle state, one RNG stream each."""

    params: Params
    velocities: np.ndarray  # (M, N)
    time: float
    rngs: list

    @classmethod
    def create(cls, params: Params, n_replicas: int, seed: int,
               initial: InitialCondition | None = None) -> "Ensemble":
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        if params.lam > 0.0 and params.n_particles < 2:
            raise ValueError("pair collisions need N >= 2")
        if params.lam + params.mu == 0.0:
            raise NoEventError("lam = mu = 0 gives an infinite waiting time")
        if initial is None:
            initial = equilibrium_start(params)
        rngs = _replica_rngs(seed, n_replicas)
        n = params.n_particles
        v = np.empty((n_replicas, n))
        for r, rng in enumerate(rngs):
            v[r] = sample_initial(initial, params, rng, n)
        return cls(params=params, velocities=v, time=0.0, rngs=rngs)

    @property
    def n_replicas(self) -> int:
        return self.velocities.shape[0]

    def snapshot(self) -> np.ndarray:
        return self.velocities.copy()

    def advance_to(self, t: float) -> None:
        """Apply all events up to time t with the rotation kernel described in
        the module docstring."""
        dt = t - self.time
        if dt < -1e-12:
            raise ValueError("cannot advance backwards")
        if dt <= 0.0:
            return
        p = self.params
        n = p.n_particles
        rate = (p.lam + p.mu) * n
        m = self.n_replicas
        size = m * n
        counts = np.array([rng.poisson(rate * dt) for rng in self.rngs], dtype=np.int64)
        offsets = np.zeros(m, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        n_events = int(counts.sum())
        # workspace: [state (M*N) | bath slot of every event (E) | uniforms (4E)]
        ws = np.empty(size + 5 * n_events)
        ws[:size] = self.velocities.reshape(-1)
        bath = ws[size : size + n_events]
        uniforms = ws[size + n_events :]
        for rng, off, c in zip(self.rngs, offsets.tolist(), counts.tolist()):
            rng.random(out=uniforms[4 * off : 4 * (off + c)])
            rng.standard_normal(out=bath[off : off + c])
        bath /= math.sqrt(p.beta)

        p_kac = p.lam / (p.lam + p.mu)
        order = np.argsort(-counts, kind="stable")
        s_counts = counts[order]
        s_type = 4 * offsets[order]  # type uniform of each replica's event 0
        s_bath = size + offsets[order]  # bath slot of each replica's event 0
        s_base = order * n  # each replica's row in the workspace
        kmax = int(s_counts[0])
        # replicas active at step k, and where each step starts in step-major order
        widths = np.searchsorted(-s_counts, -np.arange(kmax), side="left")
        starts = np.zeros(kmax + 1, dtype=np.int64)
        np.cumsum(widths, out=starts[1:])
        for k0 in range(0, kmax, BLOCK_STEPS):
            k1 = min(k0 + BLOCK_STEPS, kmax)
            sizes = widths[k0:k1]
            first = starts[k0:k1] - starts[k0]
            # the block's events in step-major order: sorted position pos, step k
            pos = np.arange(starts[k1] - starts[k0]) - np.repeat(first, sizes)
            k = np.repeat(np.arange(k0, k1), sizes)
            c = s_counts[pos]
            u = s_type[pos] + k  # the event's type uniform; site, pair, angle follow c apart
            theta = 2.0 * math.pi * uniforms[u + 3 * c]
            cos_t = np.cos(theta)
            sin_t = np.sin(theta)
            site = (uniforms[u + c] * n).astype(np.int64)
            partner = (uniforms[u + 2 * c] * (n - 1)).astype(np.int64)
            partner += partner >= site
            base = s_base[pos]
            ii = base + site
            jj = np.where(uniforms[u] < p_kac, base + partner, s_bath[pos] + k)
            for lo, hi in zip(first.tolist(), (first + sizes).tolist()):
                i = ii[lo:hi]
                j = jj[lo:hi]
                ck = cos_t[lo:hi]
                sk = sin_t[lo:hi]
                a = ws.take(i)
                b = ws.take(j)
                ws[i] = a * ck + b * sk
                ws[j] = -a * sk + b * ck
        self.velocities[...] = ws[:size].reshape(m, n)
        self.time = t


# ---------------------------------------------------------------------------
# observables

def cell_counts(values, edges) -> np.ndarray:
    """Counts per cell along the last axis of `values`, for uniform `edges`.

    Cells are half-open: cell 0 is v < edges[0], cell b is edges[b-1] <= v <
    edges[b], cell bins+1 the rest (the top edge, +inf, NaN); the cell of every
    value is np.searchsorted(edges, v, side="right"), found by grid arithmetic
    corrected by one step against the edges themselves."""
    v = np.asarray(values, dtype=float)
    edges = np.asarray(edges, dtype=float)
    bins = edges.size - 1
    width = np.diff(edges)
    if bins < 1 or not np.all(width > 0) or np.ptp(width) > 1e-9 * width.mean():
        raise ValueError("edges must be increasing and uniformly spaced")
    cells = bins + 2
    x = v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
    bounds = np.concatenate([[-np.inf], edges, [np.nan]])  # cell c is [bounds[c], bounds[c+1])
    step = max(1, 65536 // max(1, x.shape[1]))  # rows per block; keeps temporaries in cache
    counts = np.empty((x.shape[0], cells), dtype=np.int64)
    for r in range(0, x.shape[0], step):
        xb = x[r : r + step]
        with np.errstate(over="ignore"):
            t = (xb - edges[0]) * (bins / (edges[-1] - edges[0]))
        np.floor(t, out=t)
        np.maximum(np.fmin(t, bins, out=t), -1.0, out=t)  # NaN goes to the overflow
        idx = t.astype(np.intp) + 1
        idx -= xb < bounds.take(idx)
        idx += xb >= bounds.take(idx + 1)
        idx += np.arange(0, len(xb) * cells, cells)[:, None]
        counts[r : r + step] = np.bincount(idx.ravel(), minlength=len(xb) * cells).reshape(
            -1, cells)
    return counts.reshape(v.shape[:-1] + (cells,))


@dataclass
class ObservableSeries:
    """Ensemble observables on a sampling grid."""

    params: Params
    seed: int
    n_replicas: int
    times: np.ndarray
    kinetic_energy: np.ndarray          # ensemble mean of (1/2) sum v_i^2
    kinetic_energy_stderr: np.ndarray
    moments: np.ndarray                 # (T, 6) pooled one-particle raw moments
    moment_stderr: np.ndarray
    histogram: np.ndarray               # (T, bins) one-particle marginal masses
    histogram_underflow: np.ndarray
    histogram_overflow: np.ndarray
    histogram_edges: np.ndarray
    snapshots: dict = field(default_factory=dict)  # time -> (M, N) velocities

    @property
    def temperature(self) -> np.ndarray:
        return 2.0 * self.kinetic_energy / self.params.n_particles


def run(
    params: Params,
    n_replicas: int,
    horizon: float,
    sample_times: Sequence[float] | None = None,
    seed: int = 0,
    initial: InitialCondition | None = None,
    snapshot_times: Sequence[float] = (),
) -> ObservableSeries:
    """Evolve an ensemble and record observables at the sampling grid."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, 33)
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) and times.size > 1:
        raise ValueError("sample times must be strictly increasing")
    if times[0] < 0 or times[-1] > horizon + 1e-12:
        raise ValueError("sample times must lie in [0, horizon]")
    snap_set = {float(t) for t in snapshot_times}
    stops = np.unique(np.concatenate([times, np.array(sorted(snap_set))])) if snap_set else times

    ens = Ensemble.create(params, n_replicas, seed, initial)
    sigma = 1.0 / math.sqrt(params.beta)
    edges = np.linspace(-HISTOGRAM_HALF_WIDTH * sigma, HISTOGRAM_HALF_WIDTH * sigma,
                        HISTOGRAM_BINS + 1)

    t_count = times.size
    ke = np.empty(t_count)
    ke_err = np.empty(t_count)
    mom = np.empty((t_count, N_MOMENTS))
    mom_err = np.empty((t_count, N_MOMENTS))
    masses = np.empty((t_count, HISTOGRAM_BINS + 2))
    snaps: dict[float, np.ndarray] = {}

    sample_pos = {float(t): k for k, t in enumerate(times)}
    m = n_replicas
    for t in stops:
        ens.advance_to(float(t))
        if float(t) in snap_set:
            snaps[float(t)] = ens.snapshot()
        k = sample_pos.get(float(t))
        if k is None:
            continue
        v = ens.velocities
        e_rep = 0.5 * np.einsum("ij,ij->i", v, v)
        ke[k] = e_rep.mean()
        ke_err[k] = e_rep.std(ddof=1) / math.sqrt(m) if m > 1 else 0.0
        pw = v
        for q in range(N_MOMENTS):
            rep_mean = pw.mean(axis=1)
            mom[k, q] = rep_mean.mean()
            mom_err[k, q] = rep_mean.std(ddof=1) / math.sqrt(m) if m > 1 else 0.0
            if q < N_MOMENTS - 1:
                pw = pw * v
        masses[k] = cell_counts(v, edges).sum(axis=0) / v.size

    return ObservableSeries(
        params=params,
        seed=seed,
        n_replicas=n_replicas,
        times=times,
        kinetic_energy=ke,
        kinetic_energy_stderr=ke_err,
        moments=mom,
        moment_stderr=mom_err,
        histogram=masses[:, 1:-1],
        histogram_underflow=masses[:, 0],
        histogram_overflow=masses[:, -1],
        histogram_edges=edges,
        snapshots=snaps,
    )


def fit_cooling_rate(series: ObservableSeries, params: Params) -> float:
    """Log-linear fit of the kinetic-energy relaxation rate.

    The energy obeys dK/dt = -(mu/2)(K - N/(2 beta)) exactly, so the fitted
    rate estimates mu/2 regardless of lam.  Raises when the series starts at
    equilibrium or covers less than two e-foldings of decay.
    """
    n = params.n_particles
    k_inf = n / (2.0 * params.beta)
    resid = series.kinetic_energy - k_inf
    amp0 = resid[0]
    noise0 = max(series.kinetic_energy_stderr[0], 1e-300)
    if abs(amp0) < max(10.0 * noise0, 1e-6 * k_inf):
        raise IllConditionedFitError("initial energy sits at the asymptote; nothing to fit")
    span = (series.times[-1] - series.times[0]) * params.mu / 2.0
    if span < 2.0:
        raise IllConditionedFitError(
            f"series covers only {span:.2f} e-foldings of decay; need at least 2"
        )
    usable = (np.sign(resid) == np.sign(amp0)) & (
        np.abs(resid) > np.maximum(5.0 * series.kinetic_energy_stderr, 1e-4 * abs(amp0))
    )
    if usable.sum() < 3:
        raise IllConditionedFitError("too few usable points above the noise floor")
    slope = np.polyfit(series.times[usable], np.log(np.abs(resid[usable])), 1)[0]
    return -float(slope)

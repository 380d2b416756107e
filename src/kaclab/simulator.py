"""Exact event-driven simulation of the N-particle velocity jump process.

Two event types drive the chain: pair collisions (rate lam*N total; a uniform
unordered pair is rotated by a uniform angle, which preserves its kinetic
energy) and thermostat collisions (rate mu*N total; one particle is rotated
against a fresh Gaussian partner that is never seen again).

`run` evolves an ensemble of independent replicas through its stops, a
strictly increasing list of times, and at each hands the live state to one
callback that reduces it in place of a copy.  `observables` is such a
reducer: the kinetic energy and the first six pooled moments, which
`observable_series` collects into an `ObservableSeries`.

The random stream is laid out in time windows, not in the intervals between
stops, so a realization does not depend on where it is observed:

- Windows: window w is [w D, (w + 1) D) with D = EVENTS_PER_WINDOW /
  ((lam + mu) N M), so that the M replicas together expect EVENTS_PER_WINDOW
  events in each.  D depends on the parameters and M, never on the stops.
- One stream per window: window w is read from one Philox keyed by the seed,
  with counter (0, 0, w, 0): first every replica's Poisson count; then one
  pair of raw 64-bit words per event, in step-major order over the replicas
  sorted by descending count (step k holds the k-th event of every replica
  that has one), the first words of all events before the second words; then
  one normal per thermostat event.  The first word gives the site, the
  partner and the type by multiply-shift (`_decode_events`), the second the
  angle theta = 2 pi U / 2**53 from its top 53 bits U, whose cosine and sine
  come from one tangent of (theta - pi) / 4 (`_cos_sin`).  Initial states
  come from counter (0, 0, 0, 2).
- Stops: a replica's events in a window sit at the order statistics of
  uniform epochs, read in replica order from counter (0, 0, w, 1) only for a
  window that holds a stop.  A stop applies the events whose epochs come
  before it; the rest of the window is applied by the next call.  A stop
  changes no draw, so adding one leaves the states at the others
  bit-identical.  Replica r's path depends on M, through D and the shared
  stream.

`Ensemble.advance_to` applies the events with one rotation kernel for both
event types:

- Bath slots: the workspace is the M*N state followed by one slot per
  thermostat event of the window, holding its normal over sqrt(beta).
  `Ensemble.create` allocates it, with room for the window's expected bath
  slots and 16 standard deviations more, and draws the initial state straight
  into its first M*N doubles; it grows only for a window that needs more.  An
  event rotates site I against J, a' = a cos + b sin, b' = -a sin + b cos,
  where J is the pair partner of a Kac event and the event's own bath slot for
  a thermostat event, so a thermostat collision is a Kac rotation against a
  fresh bath particle.
- Prefix lock-step: the replicas that still have an event at step k form a
  prefix of the sorted order, and the step's events are contiguous in the
  window, so one slice of I, J, cos and sin applies each step to all active
  replicas at once (two gathers, two scatters), with no branch on the event
  type.  A part of a window, up to a stop or on from one, is applied the same
  way over its replicas sorted by their events in the part, each step
  gathering its events from the window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Params, check_times

N_MOMENTS = 6
EVENTS_PER_WINDOW = 1 << 16  # expected events of all replicas in one window
# doubles held per expected event of a window: I, J, cos, sin, the epoch and
# the bath slot, the raw words and temporaries while it is decoded, and the
# per-step bounds when M is small (tracemalloc: 7.2 at M = 1000, 12 at M = 1)
WINDOW_EVENT_DOUBLES = 12
# doubles (32 MiB) that `Ensemble.create` allocates for the workspace at least:
# glibc's malloc maps a block this large and unmaps it when it is freed, and
# pages never touched take no memory; a smaller workspace would stay in its
# heap after the ensemble is gone
WORKSPACE_MIN = 1 << 22
# collision angles computed at once, so that the temporaries stay in cache
ANGLE_CHUNK = 1 << 13
BOOTSTRAP_CHUNK = 16  # bootstrap resamples whose weights are drawn at once
# the last word of a stream's Philox counter
_EVENTS, _EPOCHS, _INITIAL = 0, 1, 2


class SimulationError(RuntimeError):
    pass


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


@dataclass(frozen=True)
class Uniform:
    """Independent particles uniform on [-half_width, half_width]; the
    temperature is half_width**2 / 3."""

    half_width: float


InitialCondition = ProductGaussian | TwoTemperature | Uniform


def _hot_count(initial: TwoTemperature, n: int) -> int:
    """The start's n_hot, once it lies in [0, N]."""
    if not 0 <= initial.n_hot <= n:
        raise ValueError(f"n_hot must lie in [0, {n}], got {initial.n_hot}")
    return initial.n_hot


def sample_initial(initial: InitialCondition, rng: np.random.Generator,
                   out: np.ndarray) -> np.ndarray:
    """Draw velocities into the C-contiguous `out` and return it: (N,) for one
    replica or (M, N) for M replicas drawn one after another from `rng`.
    Every law fills `out` in place with one call, with no temporary of its
    size: `Uniform` gives the bits of `rng.uniform(-h, h, N)` row after row,
    since that computes -h + 2h U from the same uniforms U."""
    if isinstance(initial, Uniform):
        h = initial.half_width
        rng.random(out=out)
        out *= 2.0 * h
        out += -h
        return out
    if isinstance(initial, ProductGaussian):
        rng.standard_normal(out=out)
        out *= math.sqrt(initial.temperature)
        out += initial.mean
        return out
    if isinstance(initial, TwoTemperature):
        n_hot = _hot_count(initial, out.shape[-1])
        rng.standard_normal(out=out)
        out[..., :n_hot] *= math.sqrt(initial.t_hot)
        out[..., n_hot:] *= math.sqrt(initial.t_cold)
        return out
    raise TypeError(f"unsupported initial condition {initial!r}")


def initial_relative_entropy(initial: InitialCondition, params: Params) -> float:
    """Closed-form relative entropy of the product initial law w.r.t. the
    equilibrium product Gaussian."""

    def gauss_term(temperature: float, mean: float = 0.0) -> float:
        # log(beta T) as a sum, since beta T may underflow to 0
        x = params.beta * temperature
        log_x = math.log(params.beta) + math.log(temperature)
        return 0.5 * (x - 1.0 - log_x) + 0.5 * params.beta * mean**2

    n = params.n_particles
    if isinstance(initial, ProductGaussian):
        return n * gauss_term(initial.temperature, initial.mean)
    if isinstance(initial, TwoTemperature):
        n_hot = _hot_count(initial, n)
        return n_hot * gauss_term(initial.t_hot) + (n - n_hot) * gauss_term(initial.t_cold)
    raise TypeError("closed-form entropy available for product Gaussian data only")


# ---------------------------------------------------------------------------
# ensemble

def _stream(seed: int, window: int, kind: int) -> np.random.Generator:
    """The Philox keyed by `seed` at counter (0, 0, window, kind)."""
    counter = np.array([0, 0, window, kind], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _decode_events(words: np.ndarray, n: int, kac_below: int):
    """Site, partner and type of events from their first raw 64-bit words, by
    multiply-shift (Lemire): the high 32 bits times N, shifted down by 32, give
    the site in [0, N); the low 32 bits times N - 1 give the partner in
    [0, N - 1), moved past the site, and the low 32 bits of that product, the
    fraction left over, a Kac event when below `kac_below`."""
    site = words >> 32
    site *= n
    site >>= 32
    frac = words & 0xFFFFFFFF
    frac *= n - 1
    partner = frac >> 32
    partner += partner >= site
    frac &= 0xFFFFFFFF
    return site.view(np.int64), partner.view(np.int64), frac < kac_below


def _cos_sin(words: np.ndarray):
    """cos and sin of the angles theta = 2 pi U / 2**53 in [0, 2 pi) that the
    top 53 bits U of raw 64-bit words give, through one tangent: psi = (theta -
    pi) / 4 lies in [-pi/4, pi/4), far from a pole, and with t = tan psi, c =
    (1 - t^2) / (1 + t^2) and s = 2 t / (1 + t^2) are the cosine and sine of 2
    psi, so cos theta = (s - c)(s + c) and sin theta = -2 s c.  Both stay within
    1e-15 of the exact values at every angle, near 0 and pi too, where a sine
    taken as sqrt(1 - cos^2) loses digits.  The words are taken ANGLE_CHUNK at
    a time, so that only the results have their size."""
    cos = np.empty(words.size)
    sin = np.empty(words.size)
    for a in range(0, words.size, ANGLE_CHUNK):
        b = a + ANGLE_CHUNK
        t = words[a:b] >> 11
        t = t * (0.5 * math.pi / 2.0**53)
        t -= 0.25 * math.pi
        np.tan(t, out=t)
        q = 1.0 + t * t
        c = (1.0 - t) * (1.0 + t) / q
        s = (t + t) / q
        np.multiply(s, c, out=sin[a:b])
        sin[a:b] *= -2.0
        np.subtract(s, c, out=cos[a:b])
        s += c
        cos[a:b] *= s
    return cos, sin


def workspace_doubles(n_replicas, n_particles):
    """Doubles that an `Ensemble` holds: the state and its bath slots in the
    workspace, and while it advances one window's events."""
    return n_replicas * n_particles + WINDOW_EVENT_DOUBLES * EVENTS_PER_WINDOW


def _new_workspace(size: int, slots: int) -> np.ndarray:
    """A workspace for a state of `size` doubles and `slots` bath slots, with
    16 sqrt(slots) more for later windows; allocated at no less than
    WORKSPACE_MIN doubles, so that it is returned to the system on free.

    Before it, one window's doubles are mapped and freed at once: glibc's malloc
    then raises its mmap threshold to that size and its trim threshold to twice
    it, so each window's temporaries come from its heap and reuse the same pages.
    Otherwise whether they are faulted in again at every window depends on where
    earlier allocations left the top of the heap: about 700 page faults a window,
    a sixth of `cooling`'s time."""
    np.empty(WINDOW_EVENT_DOUBLES * EVENTS_PER_WINDOW)
    total = size + slots + 16 * math.isqrt(slots)
    return np.empty(max(total, WORKSPACE_MIN))[:total]


@dataclass
class _Window:
    """One window's draws, decoded; events in step-major order."""

    index: int
    counts: np.ndarray  # events per replica
    order: np.ndarray  # replicas by descending count
    starts: np.ndarray  # step k's events are [starts[k], starts[k + 1])
    i: np.ndarray  # workspace index of the rotated site
    j: np.ndarray  # workspace index of its partner or bath slot
    cos: np.ndarray
    sin: np.ndarray
    done: np.ndarray | None = None  # events applied per replica, None for none
    epochs: np.ndarray | None = None  # in [0, 1), each replica's in turn


def _rotate(ws, i, j, c, s) -> None:
    a = ws.take(i)
    b = ws.take(j)
    ws[i] = a * c + b * s
    ws[j] = b * c - a * s


@dataclass
class Ensemble:
    """Independent replicas of the N-particle state, read from one
    window-keyed stream."""

    params: Params
    velocities: np.ndarray  # (M, N), a view of the workspace's first M N doubles
    time: float
    seed: int
    _ws: np.ndarray = field(repr=False)
    _window: _Window | None = field(default=None, repr=False)

    @classmethod
    def create(cls, params: Params, n_replicas: int, seed: int,
               initial: InitialCondition | None = None) -> "Ensemble":
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        if params.lam > 0.0 and params.n_particles < 2:
            raise ValueError("pair collisions need N >= 2")
        if params.lam + params.mu == 0.0:
            raise ValueError("lam = mu = 0 gives an infinite waiting time")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if params.n_particles >= 2**32:
            raise ValueError("multiply-shift decoding needs N < 2**32")
        if initial is None:
            initial = ProductGaussian(temperature=1.0 / params.beta)
        size = n_replicas * params.n_particles
        # a window expects EVENTS_PER_WINDOW events or fewer, this share of them thermostat
        ws = _new_workspace(size, math.ceil(EVENTS_PER_WINDOW * params.mu
                                            / (params.lam + params.mu)))
        v = ws[:size].reshape(n_replicas, params.n_particles)
        sample_initial(initial, _stream(seed, 0, _INITIAL), v)
        return cls(params=params, velocities=v, time=0.0, seed=seed, _ws=ws)

    @property
    def n_replicas(self) -> int:
        return self.velocities.shape[0]

    @property
    def window_width(self) -> float:
        rate = (self.params.lam + self.params.mu) * self.params.n_particles
        return min(EVENTS_PER_WINDOW / (rate * self.n_replicas), sys.float_info.max)

    def advance_to(self, t: float) -> None:
        """Apply all events up to time t, window by window, as the module
        docstring describes."""
        dt = t - self.time
        if dt < -1e-12:
            raise ValueError("cannot advance backwards")
        if dt <= 0.0:
            return
        width = self.window_width
        x = t / width
        if not x < 2.0**63:
            raise ValueError(f"t = {t!r} lies past the stream's last window")
        last = math.floor(x)
        for w in range(math.floor(self.time / width), last):
            self._apply(w, None)
        if x > last:
            self._apply(last, x - last)
        self.time = t

    def _workspace(self, slots: int) -> np.ndarray:
        """The workspace, [state | bath slots], grown to hold at least `slots`
        bath slots."""
        size = self.velocities.size
        if self._ws.size < size + slots:
            ws = _new_workspace(size, slots)
            ws[:size] = self.velocities.reshape(-1)
            self.velocities = ws[:size].reshape(self.velocities.shape)
            self._ws = ws
        return self._ws

    def _draw(self, w: int) -> _Window:
        """Window w's counts and events, and its normals in the bath slots."""
        p = self.params
        n = p.n_particles
        m = self.n_replicas
        size = m * n
        rng = _stream(self.seed, w, _EVENTS)
        counts = rng.poisson((p.lam + p.mu) * n * self.window_width, m)
        order = np.argsort(-counts, kind="stable")
        s_counts = counts[order]
        kmax = int(s_counts[0])
        # replicas with an event at step k, and where each step starts
        widths = np.searchsorted(-s_counts, -np.arange(kmax), side="left")
        starts = np.zeros(kmax + 1, dtype=np.int64)
        np.cumsum(widths, out=starts[1:])
        n_events = int(starts[-1])
        # the first words; the stream reads on to the second words as if both
        # were drawn in one call, and only one half is held at a time
        words = rng.bit_generator.random_raw(n_events)
        kac_below = round(p.lam / (p.lam + p.mu) * 2**32)
        site, partner, kac = _decode_events(words, n, kac_below)
        del words
        # each event's row in the workspace: step k takes the first widths[k] sorted rows
        base = np.broadcast_to(order * n, (kmax, m))[np.arange(m) < widths[:, None]]
        site += base
        partner += base
        del base
        # a thermostat event's partner is its own bath slot, in event order
        bath_events = np.flatnonzero(~kac)
        n_bath = bath_events.size
        partner.put(bath_events, np.arange(size, size + n_bath))
        del bath_events, kac
        # the second words: each event's rotation angle, as its cosine and sine
        cos, sin = _cos_sin(rng.bit_generator.random_raw(n_events))
        ws = self._workspace(n_bath)
        bath = ws[size : size + n_bath]
        rng.standard_normal(out=bath)
        bath /= math.sqrt(p.beta)
        return _Window(index=w, counts=counts, order=order, starts=starts, i=site, j=partner,
                       cos=cos, sin=sin)

    def _apply(self, w: int, frac: float | None) -> None:
        """Apply window w's events up to the fraction `frac` of its width, or all
        that remain for None, from where the last call left it."""
        win = self._window
        if win is None or win.index != w:
            win = self._draw(w)
        hi = None if frac is None else self._events_before(win, frac)
        ws = self._ws
        if win.done is None and hi is None:
            bounds = win.starts.tolist()
            for a, b in zip(bounds[:-1], bounds[1:]):
                _rotate(ws, win.i[a:b], win.j[a:b], win.cos[a:b], win.sin[a:b])
        else:
            # the part's events per replica, over the replicas sorted by them
            lo = np.zeros_like(win.counts) if win.done is None else win.done
            part = (win.counts if hi is None else hi) - lo
            order = win.order[np.argsort(-part[win.order], kind="stable")]
            s_part = part[order]
            pos = np.argsort(win.order)[order]  # their places in the window's steps
            first = lo[order]
            widths = np.searchsorted(-s_part, -np.arange(s_part[0]), side="left")
            for k, width in enumerate(widths.tolist()):
                e = win.starts.take(first[:width] + k)
                e += pos[:width]
                _rotate(ws, win.i.take(e), win.j.take(e), win.cos.take(e), win.sin.take(e))
        win.done = hi
        self._window = None if hi is None else win

    def _events_before(self, win: _Window, frac: float) -> np.ndarray:
        """Events per replica whose epochs lie below `frac` of the window."""
        if win.epochs is None:
            rng = _stream(self.seed, win.index, _EPOCHS)
            win.epochs = rng.random(int(win.counts.sum()))
        below = np.zeros(win.epochs.size + 1, dtype=np.int64)
        np.cumsum(win.epochs < frac, out=below[1:])
        ends = np.cumsum(win.counts)
        return below[ends] - below[ends - win.counts]


# ---------------------------------------------------------------------------
# observables

def cell_counts(values, edges) -> np.ndarray:
    """Counts per cell along the last axis of `values`, for uniform `edges`,
    as float64 (exact integers, the form every caller multiplies).

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
    step = max(1, 65536 // max(x.shape[1], cells))  # rows per block; keeps temporaries in cache
    counts = np.empty((x.shape[0], cells))
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


def bootstrap_weights(n_replicas: int, n_bootstrap: int, seed: int) -> np.ndarray:
    """One cluster-bootstrap design over whole replicas, as an (n_bootstrap +
    1, M) float matrix: row 0 counts every replica once, so it is the sample
    itself, and row b >= 1 holds how often each replica enters resample b,
    multinomial(M, 1/M) draws from `default_rng(seed)`.  An estimator draws it
    once per experiment, scores all its rows in one pass and reuses it at
    every stop, so resample b follows the same replicas along their whole
    trajectories.  The draws are taken BOOTSTRAP_CHUNK rows at a time, the
    same draws as one call, so no integer matrix of the full size is held.
    The resamples of one replica are all that replica, so they cannot spread:
    the design needs two replicas."""
    m = n_replicas
    if m < 2:
        raise ValueError(f"a bootstrap over replicas needs at least two, got {m}")
    rng = np.random.default_rng(seed)
    p = np.full(m, 1.0 / m)
    weights = np.empty((n_bootstrap + 1, m))
    weights[0] = 1.0
    for b in range(1, n_bootstrap + 1, BOOTSTRAP_CHUNK):
        weights[b : b + BOOTSTRAP_CHUNK] = rng.multinomial(
            m, p, size=min(BOOTSTRAP_CHUNK, n_bootstrap + 1 - b))
    return weights


def _mean_stderr(x: np.ndarray) -> float:
    """Standard error of the mean of x, 0 for a single value.  x is first scaled
    by a power of two near its largest magnitude, which is exact, so that its
    squares cannot overflow."""
    if x.size < 2:
        return 0.0
    e = int(np.frexp(np.max(np.abs(x)))[1])
    return math.ldexp(np.ldexp(x, -e).std(ddof=1) / math.sqrt(x.size), e)


def observables(v: np.ndarray):
    """One stop's row of the (M, N) state `v`: the ensemble mean of the kinetic
    energy (1/2) sum v_i^2 and its standard error, then arrays of the first
    N_MOMENTS pooled one-particle raw moments and of their standard errors."""
    e_rep = 0.5 * np.einsum("ij,ij->i", v, v)
    mom = np.empty(N_MOMENTS)
    mom_err = np.empty(N_MOMENTS)
    pw = v
    for q in range(N_MOMENTS):
        rep_mean = pw.mean(axis=1)
        mom[q] = rep_mean.mean()
        mom_err[q] = _mean_stderr(rep_mean)
        if q < N_MOMENTS - 1:
            pw = pw * v
    return e_rep.mean(), _mean_stderr(e_rep), mom, mom_err


@dataclass
class ObservableSeries:
    """Ensemble observables on a sampling grid."""

    params: Params
    times: np.ndarray
    kinetic_energy: np.ndarray          # ensemble mean of (1/2) sum v_i^2
    kinetic_energy_stderr: np.ndarray
    moments: np.ndarray                 # (T, 6) pooled one-particle raw moments
    moment_stderr: np.ndarray

    @classmethod
    def from_rows(cls, params: Params, times, rows) -> "ObservableSeries":
        """The series of the `observables` rows at `times`, one row per time."""
        return cls(params, np.asarray(times, dtype=float), *map(np.array, zip(*rows)))

    @property
    def temperature(self) -> np.ndarray:
        return 2.0 * self.kinetic_energy / self.params.n_particles


def run(
    params: Params,
    n_replicas: int,
    times: Sequence[float],
    observe: Callable[[float, np.ndarray], None],
    seed: int = 0,
    initial: InitialCondition | None = None,
) -> None:
    """Evolve an ensemble through the strictly increasing `times` and, at each,
    call `observe(t, v)` with the live (M, N) state as a read-only view, valid
    until the call returns, so that the callback reduces it in place of a copy."""
    stops = check_times(times).tolist()
    ens = Ensemble.create(params, n_replicas, seed, initial)
    for t in stops:
        ens.advance_to(t)
        live = ens.velocities.view()
        live.flags.writeable = False
        observe(t, live)


def observable_series(
    params: Params,
    n_replicas: int,
    times: Sequence[float],
    seed: int = 0,
    initial: InitialCondition | None = None,
) -> ObservableSeries:
    """`run` reduced by `observables` at each of `times`."""
    rows = []
    run(params, n_replicas, times, lambda _, v: rows.append(observables(v)), seed, initial)
    return ObservableSeries.from_rows(params, times, rows)


def fit_cooling_rate(series: ObservableSeries) -> float:
    """Log-linear fit of the kinetic-energy relaxation rate.

    The energy obeys dK/dt = -(mu/2)(K - N/(2 beta)) exactly, so the fitted
    rate estimates mu/2 regardless of lam.  Raises when the series starts at
    equilibrium or covers less than two e-foldings of decay.
    """
    params = series.params
    k_inf = params.n_particles / (2.0 * params.beta)
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

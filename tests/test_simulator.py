import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaclab.simulator as simulator
from kaclab.core import Params
from kaclab.simulator import (
    Ensemble,
    IllConditionedFitError,
    NoEventError,
    ProductGaussian,
    TwoTemperature,
    Uniform,
    bootstrap_weights,
    cell_counts,
    fit_cooling_rate,
    initial_relative_entropy,
    run,
    sample_initial,
)

SEED = 20260808


def searchsorted_counts(values, edges):
    # oracle: per-row cell counts from searchsorted(..., "right"); cell 0 is the
    # underflow and cell bins+1 the overflow
    x = np.atleast_2d(np.asarray(values, dtype=float))
    idx = np.searchsorted(edges, x, side="right")
    return np.stack([np.bincount(row, minlength=edges.size + 1) for row in idx])


M32 = 0xFFFFFFFF


def window_events(seed, w, params, m, width):
    """Oracle: window w of the stream read one event at a time.  Returns, per
    replica, its events in time order as (epoch, site, partner, cos, sin), the
    partner None for a thermostat event, which carries its bath normal instead."""
    def stream(kind):
        counter = np.array([0, 0, w, kind], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=seed, counter=counter))

    n = params.n_particles
    rng = stream(0)
    counts = rng.poisson((params.lam + params.mu) * n * width, m).tolist()
    # step-major: step k holds, by descending count (ties by index), every
    # replica with more than k events
    order = sorted(range(m), key=lambda r: -counts[r])
    slots = [(r, k) for k in range(max(counts)) for r in order if counts[r] > k]
    words = rng.bit_generator.random_raw(2 * len(slots)).tolist()
    # the angle theta = 2 pi U / 2**53 from the top 53 bits U, through
    # t = tan((theta - pi) / 4)
    psi = np.array([y >> 11 for y in words[len(slots):]], dtype=float)
    psi *= 0.5 * math.pi / 2.0**53
    psi -= 0.25 * math.pi
    tangents = np.tan(psi).tolist()
    kac_below = round(params.lam / (params.lam + params.mu) * 2**32)
    decoded = {}
    n_bath = 0
    for e, (r, k) in enumerate(slots):
        x = words[e]
        site = (x >> 32) * n >> 32
        low = (x & M32) * (n - 1)
        partner = low >> 32
        partner += partner >= site
        t = tangents[e]
        q = 1.0 + t * t
        c2 = (1.0 - t) * (1.0 + t) / q
        s2 = (t + t) / q
        c = (s2 - c2) * (s2 + c2)
        s = -2.0 * (s2 * c2)
        if (low & M32) < kac_below:
            decoded[r, k] = [site, partner, c, s]
        else:
            decoded[r, k] = [site, None, c, s, n_bath]
            n_bath += 1
    bath = rng.standard_normal(n_bath) / math.sqrt(params.beta)
    # replica r's epochs follow those of the replicas before it; its k-th event
    # sits at its k-th smallest epoch
    epochs = stream(1).random(len(slots)).tolist()
    out, off = [], 0
    for r, c in enumerate(counts):
        times = sorted(epochs[off : off + c])
        off += c
        events = []
        for k in range(c):
            ev = decoded[r, k]
            if ev[1] is None:
                ev = ev[:4] + [bath[ev[4]]]
            events.append((times[k], *ev))
        out.append(events)
    return out


def scalar_advance_to(ens, t):
    """Oracle for `Ensemble.advance_to`: each replica's events applied one at a
    time, in time order, from each window's stream read one event at a time."""
    if t - ens.time < -1e-12:
        raise ValueError("cannot advance backwards")
    if t <= ens.time:
        return
    p = ens.params
    m, n = ens.velocities.shape
    width = min(simulator.EVENTS_PER_WINDOW / ((p.lam + p.mu) * n * m), sys.float_info.max)
    start, stop = ens.time / width, t / width
    v = ens.velocities
    for w in range(math.floor(start), math.floor(stop) + 1):
        lo = start - w if w == math.floor(start) else 0.0
        hi = stop - w if w == math.floor(stop) else math.inf
        for r, events in enumerate(window_events(ens.seed, w, p, m, width)):
            for epoch, i, j, c, s, *bath in events:
                if not lo <= epoch < hi:
                    continue
                a = v[r, i]
                b = bath[0] if j is None else v[r, j]
                v[r, i] = a * c + b * s
                if j is not None:
                    v[r, j] = -a * s + b * c
    ens.time = t


def run_keeping(params, observe_times, **kwargs):
    """`run` with a copy of the state at each of `observe_times`, by time."""
    states = {}
    series = run(params, observe_times=observe_times,
                 observe=lambda t, v: states.__setitem__(t, v.copy()), **kwargs)
    return series, states


class TestInitialConditions:
    def test_two_temperature_layout(self):
        rng = np.random.default_rng(SEED)
        v = sample_initial(TwoTemperature(t_hot=9.0, t_cold=0.25, n_hot=100), rng, np.empty(1000))
        assert 7.0 < v[:100].var() < 11.5
        assert 0.2 < v[100:].var() < 0.31

    def test_refuses_a_callable(self):
        with pytest.raises(TypeError, match="unsupported initial condition"):
            sample_initial(lambda rng, n: np.full(n, 2.0), np.random.default_rng(0),
                           np.empty(4))

    @pytest.mark.parametrize("shape", [(7,), (1, 7), (5, 7)])
    def test_uniform_equals_per_row_uniform(self, shape):
        # -h + 2h U in place gives the bits of rng.uniform(-h, h, N), row after row
        h = 1.7320508075688772
        got = sample_initial(Uniform(h), np.random.default_rng(SEED), np.empty(shape))
        rng = np.random.default_rng(SEED)
        rows = [rng.uniform(-h, h, shape[-1]) for _ in range(math.prod(shape[:-1]))]
        assert np.array_equal(got, np.reshape(rows, shape))

    def test_uniform_draws_in_place(self):
        m, n = 200, 500
        out = np.empty((m, n))
        tracemalloc.start()
        try:
            sample_initial(Uniform(2.0), np.random.default_rng(SEED), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8
        assert -2.0 <= out.min() and out.max() < 2.0

    def test_draws_equal_a_fresh_array(self):
        # drawing into a given array reads the stream as drawing a new one does
        for init in (ProductGaussian(1.5, mean=0.2), TwoTemperature(3.0, 0.5, 2)):
            got = sample_initial(init, np.random.default_rng(SEED), np.empty((3, 5)))
            want = np.random.default_rng(SEED).standard_normal((3, 5))
            if isinstance(init, ProductGaussian):
                want = want * math.sqrt(1.5) + 0.2
            else:
                want[:, :2] *= math.sqrt(3.0)
                want[:, 2:] *= math.sqrt(0.5)
            assert np.array_equal(got, want)

    def test_initial_entropy_closed_forms(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0, beta=1.0)
        assert initial_relative_entropy(ProductGaussian(temperature=1.0), p) == 0.0
        got = initial_relative_entropy(ProductGaussian(temperature=2.0), p)
        assert math.isclose(got, 10 * 0.5 * (2.0 - 1.0 - math.log(2.0)), rel_tol=1e-12)
        got = initial_relative_entropy(ProductGaussian(temperature=1.0, mean=0.5), p)
        assert math.isclose(got, 10 * 0.5 * 0.25, rel_tol=1e-12)
        two = TwoTemperature(t_hot=4.0, t_cold=1.0, n_hot=3)
        assert math.isclose(
            initial_relative_entropy(two, p), 3 * 0.5 * (4.0 - 1.0 - math.log(4.0)), rel_tol=1e-12
        )

    def test_initial_entropy_where_beta_t_underflows(self):
        # beta T = 5e-324 * 0.5 rounds to 0, but log(beta T) is finite
        p = Params(n_particles=2, lam=1.0, mu=1.0, beta=5e-324)
        got = initial_relative_entropy(TwoTemperature(t_hot=4.0, t_cold=0.5, n_hot=1), p)
        log_cold = math.log(5e-324) + math.log(0.5)
        assert math.isclose(got, 0.5 * (-1.0 - math.log(4 * 5e-324)) + 0.5 * (-1.0 - log_cold),
                            rel_tol=1e-12)


class TestEnsemble:
    def test_energy_conserved_without_thermostat(self):
        p = Params(n_particles=5, lam=2.0, mu=0.0)
        ens = Ensemble.create(p, n_replicas=16, seed=SEED, initial=ProductGaussian(2.0))
        e0 = (ens.velocities**2).sum(axis=1)
        for t in (0.5, 1.0, 2.0):
            ens.advance_to(t)
            e = (ens.velocities**2).sum(axis=1)
            assert np.max(np.abs(e / e0 - 1.0)) < 1e-12

    def test_reproducible_and_seed_sensitive(self):
        p = Params(n_particles=8, lam=1.0, mu=1.0)
        ts = np.linspace(0.0, 1.0, 33)
        a = run(p, n_replicas=32, sample_times=ts, seed=SEED, initial=ProductGaussian(2.0))
        b = run(p, n_replicas=32, sample_times=ts, seed=SEED, initial=ProductGaussian(2.0))
        c = run(p, n_replicas=32, sample_times=ts, seed=SEED + 1, initial=ProductGaussian(2.0))
        assert np.array_equal(a.kinetic_energy, b.kinetic_energy)
        assert np.array_equal(a.moments, b.moments)
        assert not np.array_equal(a.kinetic_energy, c.kinetic_energy)

    def test_initial_states_prefix_stable_in_m(self):
        # initial states are drawn replica after replica from one stream, so
        # adding replicas leaves the first ones untouched
        p = Params(n_particles=4, lam=1.0, mu=0.5)
        for init in (ProductGaussian(1.5), TwoTemperature(3.0, 0.5, 1), Uniform(1.0)):
            small = Ensemble.create(p, n_replicas=3, seed=SEED, initial=init)
            big = Ensemble.create(p, n_replicas=7, seed=SEED, initial=init)
            assert np.array_equal(small.velocities, big.velocities[:3])

    def test_window_counts_prefix_stable_in_m(self, monkeypatch):
        # every replica's Poisson count comes first in a window's stream: at the
        # same mean per replica, the first M' of M replicas draw the counts of M'
        p = Params(n_particles=4, lam=1.0, mu=0.5)
        counts = {}
        for m in (3, 7, 40):
            monkeypatch.setattr(simulator, "EVENTS_PER_WINDOW", 5 * m)  # a mean of 5
            ens = Ensemble.create(p, n_replicas=m, seed=SEED)
            counts[m] = [ens._draw(w).counts for w in range(3)]
        for w in range(3):
            assert np.array_equal(counts[7][w][:3], counts[3][w])
            assert np.array_equal(counts[40][w][:7], counts[7][w])
            assert not np.array_equal(counts[40][w], counts[40][(w + 1) % 3])

    def test_window_width_bounds_the_buffer(self):
        # the window holds EVENTS_PER_WINDOW expected events at any N, M and rate;
        # at a rate whose width overflows, one finite window holds every time
        for n, lam, mu, m in ((4, 1.0, 1.0, 10), (1250, 1.0, 1.0, 2000), (100, 0.0, 1e-3, 1)):
            ens = Ensemble.create(Params(n_particles=n, lam=lam, mu=mu), m, SEED)
            events = (lam + mu) * n * m * ens.window_width
            assert math.isclose(events, simulator.EVENTS_PER_WINDOW, rel_tol=1e-12)
        ens = Ensemble.create(Params(n_particles=4, lam=0.0, mu=1e-310), 5, SEED)
        assert ens.window_width == sys.float_info.max
        ens.advance_to(1e300)
        assert np.isfinite(ens.velocities).all()

    def test_state_drawn_into_the_workspace(self):
        # create draws the initial state into the workspace it allocates, so the
        # first advance_to moves no state and the velocities stay where they were drawn
        p = Params(n_particles=6, lam=1.0, mu=1.0)
        ens = Ensemble.create(p, n_replicas=40, seed=SEED)
        drawn = ens.velocities
        start = drawn.copy()
        assert np.shares_memory(drawn, ens._ws)
        ens.advance_to(0.5)
        assert np.shares_memory(ens.velocities, drawn)
        assert not np.array_equal(drawn, start)

    def test_workspace_grows_for_a_window_past_its_room(self, monkeypatch):
        # a window with more bath slots than the workspace holds moves the state
        # into a larger one, and the states still match the scalar oracle
        monkeypatch.setattr(simulator, "WORKSPACE_MIN", 1)
        monkeypatch.setattr(simulator, "EVENTS_PER_WINDOW", 300)
        p = Params(n_particles=3, lam=0.0, mu=1.0)
        ens = Ensemble.create(p, n_replicas=5, seed=SEED)
        ref = Ensemble.create(p, n_replicas=5, seed=SEED)
        ens._ws = ens._ws[: ens.velocities.size + 1].copy()
        ens.velocities = ens._ws[: ens.velocities.size].reshape(5, 3)
        t = 0.5 * ens.window_width
        ens.advance_to(t)
        scalar_advance_to(ref, t)
        assert ens._ws.size > ens.velocities.size + 1
        assert np.shares_memory(ens.velocities, ens._ws)
        assert np.array_equal(ens.velocities, ref.velocities)

    def test_rejects_bad_setup(self):
        with pytest.raises(NoEventError):
            Ensemble.create(Params(n_particles=2, lam=0.0, mu=0.0), 4, 0)
        with pytest.raises(ValueError):
            Ensemble.create(Params(n_particles=1, lam=1.0, mu=1.0), 4, 0)


# (N, lam, mu, beta, replicas, stops): all bath, all Kac, N = 1, N = 2, M = 1,
# stops close together, so that several fall in one window, or past many
# windows, and N = 1250
KERNEL_CASES = [
    (5, 0.0, 1.0, 1.0, 40, (0.7, 1.5)),
    (6, 1.0, 0.0, 1.0, 40, (0.4, 1.0, 2.5)),
    (1, 0.0, 2.0, 0.5, 30, (0.3, 1.0)),
    (2, 1.0, 1.0, 2.0, 50, (0.05, 0.1, 0.8)),
    (7, 1.0, 1.0, 1.0, 1, (0.5, 3.0)),
    (3, 0.5, 0.5, 1.0, 64, (1e-9, 0.01, 0.02, 0.03, 0.2)),
    (40, 10.0, 1.0, 1.0, 25, (0.3, 1.0, 1.1, 2.0)),
    (1250, 1.0, 1.0, 1.0, 6, (0.1, 0.25)),
]


class TestRotationKernel:
    """The kernel against the scalar oracle: bit-identical states."""

    # expected events per window: under one per replica, so that many replicas
    # draw none, a few per replica, and the default, one window for most cases
    @pytest.mark.parametrize("per_window", [16, 300, simulator.EVENTS_PER_WINDOW])
    @pytest.mark.parametrize("n, lam, mu, beta, m, stops", KERNEL_CASES)
    def test_states_match_scalar_oracle(self, n, lam, mu, beta, m, stops, per_window,
                                        monkeypatch):
        monkeypatch.setattr(simulator, "EVENTS_PER_WINDOW", per_window)
        p = Params(n_particles=n, lam=lam, mu=mu, beta=beta)
        init = TwoTemperature(t_hot=3.0, t_cold=0.5, n_hot=max(1, n // 3))
        new = Ensemble.create(p, n_replicas=m, seed=SEED, initial=init)
        ref = Ensemble.create(p, n_replicas=m, seed=SEED, initial=init)
        for t in stops:
            new.advance_to(t)
            scalar_advance_to(ref, t)
            assert np.array_equal(new.velocities, ref.velocities)
            assert new.time == ref.time

    def test_some_replicas_draw_no_event(self, monkeypatch):
        monkeypatch.setattr(simulator, "EVENTS_PER_WINDOW", 64)
        p = Params(n_particles=2, lam=1.0, mu=1.0)
        ens = Ensemble.create(p, n_replicas=64, seed=SEED)
        counts = ens._draw(0).counts
        assert 0 in counts and max(counts) > 1
        ref = Ensemble.create(p, n_replicas=64, seed=SEED)
        ens.advance_to(0.3 * ens.window_width)
        scalar_advance_to(ref, 0.3 * ens.window_width)
        assert np.array_equal(ens.velocities, ref.velocities)

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.0, 2.0), (3.0, 0.0)])
    def test_run_series_and_observed_states_match_scalar_oracle(self, lam, mu, monkeypatch):
        monkeypatch.setattr(simulator, "EVENTS_PER_WINDOW", 200)
        p = Params(n_particles=9, lam=lam, mu=mu)
        kwargs = dict(n_replicas=48, sample_times=np.linspace(0, 2, 6),
                      seed=SEED, initial=ProductGaussian(2.5), observe_times=(0.3, 1.2))
        new, new_states = run_keeping(p, **kwargs)
        monkeypatch.setattr(Ensemble, "advance_to", scalar_advance_to)
        ref, ref_states = run_keeping(p, **kwargs)
        for name in ("kinetic_energy", "kinetic_energy_stderr", "moments", "moment_stderr"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        assert new_states.keys() == ref_states.keys() == {0.3, 1.2}
        for t in ref_states:
            assert np.array_equal(new_states[t], ref_states[t])


def decode_exhaustively(n, bits=8):
    """`_decode_events` on every word whose two 32-bit halves have only their top
    `bits` bits set: (site, partner, kac) for each (high, low) pair."""
    top = np.arange(2**bits, dtype=np.uint64) << np.uint64(32 - bits)
    words = (top[:, None] << np.uint64(32)) | top[None, :]
    site, partner, kac = simulator._decode_events(words.ravel(), n, 2**31)
    return site.reshape(words.shape), partner.reshape(words.shape), kac.reshape(words.shape)


class TestGridIndependence:
    """Adding a stop changes no draw: the states at shared stops are bit-identical."""

    def test_roadmap_reproducer(self):
        p = Params(n_particles=10, lam=1.0, mu=1.0)
        a, a_states = run_keeping(p, [2.0], n_replicas=50, sample_times=[0.0, 2.0], seed=3)
        b, b_states = run_keeping(p, [2.0], n_replicas=50, sample_times=[0.0, 1.0, 2.0], seed=3)
        assert np.array_equal(a_states[2.0], b_states[2.0])
        assert a.kinetic_energy[1] == b.kinetic_energy[2]
        assert np.array_equal(a.moments[1], b.moments[2])

    @given(
        base=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4, unique=True),
        extra=st.lists(st.floats(0.0, 3.0), max_size=4),
        snaps=st.lists(st.floats(0.0, 3.0), max_size=3),
        lam=st.sampled_from([0.0, 1.0, 5.0]),
        per_window=st.sampled_from([20, 150, 4000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_superset_of_stops_gives_identical_states(self, base, extra, snaps, lam,
                                                      per_window):
        p = Params(n_particles=5, lam=lam, mu=1.0)
        base = sorted(base)
        more = sorted(set(base) | set(extra))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "EVENTS_PER_WINDOW", per_window)
            a, a_states = run_keeping(p, base, n_replicas=12, sample_times=base, seed=SEED)
            b, b_states = run_keeping(p, [*base, *snaps], n_replicas=12, sample_times=more,
                                      seed=SEED)
        for k, t in enumerate(base):
            assert np.array_equal(a_states[t], b_states[t])
            assert a.kinetic_energy[k] == b.kinetic_energy[more.index(t)]

    def test_angle_cosine_and_sine(self):
        # against libm at the float angle 2 pi U / 2**53 that the top 53 bits U
        # give, for random words and for angles within 1e-4 of 0, pi/2, pi and 2 pi,
        # where a sine taken from the cosine loses digits
        rng = np.random.default_rng(SEED)
        offsets = np.logspace(-15, -4, 300)
        offsets = np.concatenate([-offsets, [0.0], offsets])
        units = [rng.integers(0, 2**53, 2**16, dtype=np.uint64)]
        for target in (0.0, 0.5 * math.pi, math.pi, 2.0 * math.pi):
            u = np.round((target + offsets) * (2.0**53 / (2.0 * math.pi))).astype(np.int64)
            units.append((u % 2**53).astype(np.uint64))
        units = np.concatenate(units)
        words = units << np.uint64(11) | rng.integers(0, 2**11, units.size, dtype=np.uint64)
        cos, sin = simulator._cos_sin(words)
        theta = (units * (2.0 * math.pi / 2.0**53)).tolist()
        assert np.abs(cos - [math.cos(x) for x in theta]).max() <= 2e-15
        assert np.abs(sin - [math.sin(x) for x in theta]).max() <= 2e-15
        assert np.abs(cos * cos + sin * sin - 1.0).max() <= 2e-15

    def test_multiply_shift_decoding(self):
        # exhaustively over 2**16 words for small N: every site lies in [0, N), every
        # partner in [0, N) apart from the site, and the buckets of each
        # multiply-shift hold floor(2**8 / k) or ceil(2**8 / k) of the 2**8 halves
        # mapped onto [0, k), all equal when k divides 2**8
        def assert_buckets(values, k):
            sizes = np.bincount(values, minlength=k)
            assert sizes.size == k
            assert set(sizes.tolist()) <= {256 // k, -(-256 // k)}
            assert 256 % k or np.all(sizes == 256 // k)

        for n in range(2, 10):
            site, partner, kac = decode_exhaustively(n)
            assert site.min() == 0 and site.max() == n - 1
            assert partner.min() == 0 and partner.max() == n - 1
            assert not np.any(partner == site)
            assert_buckets(site[:, 0], n)  # the site from the high half
            assert_buckets(partner[0] - (partner[0] > site[0, 0]), n - 1)  # the partner's rank
        # the type: the fraction the partner's product leaves, below the threshold
        assert decode_exhaustively(2)[2].mean() == 0.5
        ends = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert simulator._decode_events(ends, 7, 2**32)[2].all()
        assert not simulator._decode_events(ends, 7, 0)[2].any()


class TestRunObservables:
    def test_equilibrium_energy_stationary(self):
        p = Params(n_particles=20, lam=1.0, mu=1.0)
        series = run(p, n_replicas=600, sample_times=np.linspace(0, 2, 5), seed=SEED)
        want = p.n_particles / (2 * p.beta)
        for k, t in enumerate(series.times):
            assert abs(series.kinetic_energy[k] - want) < 3.5 * series.kinetic_energy_stderr[k]

    def test_cooling_curve_and_fit(self):
        p = Params(n_particles=50, lam=1.0, mu=1.0)
        series = run(p, n_replicas=2000, sample_times=np.linspace(0, 4.5, 19), seed=SEED,
                     initial=ProductGaussian(temperature=2.0 / p.beta))
        k_inf = p.n_particles / (2 * p.beta)
        curve = k_inf + k_inf * np.exp(-p.mu * series.times / 2)
        assert np.all(np.abs(series.kinetic_energy - curve)
                      < 4 * series.kinetic_energy_stderr + 1e-9)
        rate = fit_cooling_rate(series)
        assert abs(rate - p.mu / 2) < 0.1 * (p.mu / 2)

    def test_observed_in_time_order(self):
        p = Params(n_particles=6, lam=1.0, mu=1.0)
        seen = []
        run(p, n_replicas=10, sample_times=[0.0, 1.0], observe_times=[1.0, 0.5, 0.25, 0.5],
            observe=lambda t, v: seen.append((t, v.shape)), seed=SEED)
        assert seen == [(0.25, (10, 6)), (0.5, (10, 6)), (1.0, (10, 6))]

    def test_callback_gets_the_live_state(self, monkeypatch):
        # the callback is handed a read-only view of the ensemble's own state,
        # not a copy of it
        ensembles = []
        create = Ensemble.create

        def keep(*args, **kwargs):
            ensembles.append(create(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(Ensemble, "create", keep)
        seen = []

        def observe(t, v):
            (ens,) = ensembles
            assert np.shares_memory(v, ens.velocities)
            assert np.array_equal(v, ens.velocities)
            assert not v.flags.writeable
            seen.append(t)

        run(Params(n_particles=5, lam=1.0, mu=1.0), n_replicas=8, sample_times=(),
            observe_times=[0.5, 1.0], observe=observe, seed=SEED)
        assert seen == [0.5, 1.0]

    def test_observe_only(self):
        # with no sample times the stops are the observe times alone; t = 0
        # draws nothing, so the states equal a run that also samples there
        p = Params(n_particles=6, lam=1.0, mu=1.0)
        kwargs = dict(n_replicas=10, seed=SEED, observe_times=[0.5, 1.0])
        only, only_states = run_keeping(p, sample_times=(), **kwargs)
        full, full_states = run_keeping(p, sample_times=[0.0, 0.5, 1.0], **kwargs)
        assert only.times.size == 0
        assert only.kinetic_energy.shape == (0,)
        assert only.moments.shape == (0, 6)
        assert only_states.keys() == full_states.keys() == {0.5, 1.0}
        for t in full_states:
            assert np.array_equal(only_states[t], full_states[t])

    def test_observe_times_need_a_callback(self):
        p = Params(n_particles=4, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="callback"):
            run(p, n_replicas=3, sample_times=[0.0], observe_times=[1.0], seed=SEED)

    @pytest.mark.parametrize("kwargs", [
        dict(sample_times=[0.0, math.nan]),
        dict(sample_times=[0.0, math.inf]),
        dict(sample_times=[0.0, 1.0], observe_times=[-1.0], observe=print),
        dict(sample_times=[0.0, 1.0], observe_times=[math.nan], observe=print),
        dict(sample_times=(), observe_times=()),
        dict(sample_times=[0.0, 0.0]),
    ])
    def test_rejects_non_finite_times(self, kwargs):
        p = Params(n_particles=4, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="finite"):
            run(p, n_replicas=3, seed=SEED, **kwargs)

    def test_temperature_definition(self):
        p = Params(n_particles=10, lam=0.0, mu=1.0)
        series = run(p, n_replicas=20, sample_times=[0.0], seed=SEED)
        assert np.allclose(series.temperature, 2 * series.kinetic_energy / p.n_particles)

    def test_fit_errors_at_equilibrium(self):
        p = Params(n_particles=20, lam=0.0, mu=1.0)
        series = run(p, n_replicas=200, sample_times=np.linspace(0, 4.5, 33), seed=SEED)
        with pytest.raises(IllConditionedFitError):
            fit_cooling_rate(series)

    def test_fit_errors_on_short_series(self):
        p = Params(n_particles=20, lam=0.0, mu=1.0)
        series = run(p, n_replicas=200, sample_times=np.linspace(0, 0.5, 33), seed=SEED,
                     initial=ProductGaussian(3.0))
        with pytest.raises(IllConditionedFitError):
            fit_cooling_rate(series)


EDGE_SETS = [
    np.linspace(-8.0, 8.0, 257),
    np.linspace(-10.0, 10.0, 65),
    np.linspace(-10.0, 10.0, 257) / math.sqrt(2.7),
    np.linspace(-3.0, 3.0, 8),
]


class TestCellCounts:
    @pytest.mark.parametrize("edges", EDGE_SETS)
    @pytest.mark.parametrize("shape", [(40, 300), (700, 250)])  # one block; three blocks
    def test_matches_searchsorted_on_random_points(self, edges, shape):
        rng = np.random.default_rng(SEED)
        values = rng.uniform(1.3 * edges[0], 1.3 * edges[-1], shape)
        assert np.array_equal(cell_counts(values, edges), searchsorted_counts(values, edges))

    @pytest.mark.parametrize("edges", EDGE_SETS)
    def test_matches_searchsorted_on_every_edge(self, edges):
        values = np.concatenate([
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0],
        ])
        # one row per value, so each row holds that value's cell alone
        assert np.array_equal(cell_counts(values[:, None], edges),
                              searchsorted_counts(values[:, None], edges))

    def test_top_edge_goes_to_overflow(self):
        edges = np.linspace(-8.0, 8.0, 257)
        counts = cell_counts(np.array([8.0, 0.1, 0.2]), edges)
        assert counts.shape == (258,)
        assert counts.sum() == 3
        assert counts[-1] == 1
        assert counts[0] == 0

    def test_shape_follows_leading_axes(self):
        rng = np.random.default_rng(SEED)
        values = rng.standard_normal((3, 4, 50))
        edges = np.linspace(-2.0, 2.0, 9)
        counts = cell_counts(values, edges)
        assert counts.shape == (3, 4, 10)
        assert counts.dtype == np.float64
        assert np.array_equal(counts.reshape(12, 10),
                              searchsorted_counts(values.reshape(12, 50), edges))
        assert np.array_equal(cell_counts(values[0, 0], edges), counts[0, 0])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            cell_counts(np.zeros(4), np.array([1.0]))


class TestBootstrapWeights:
    @pytest.mark.parametrize("n_bootstrap", [0, 1, 15, 16, 40])
    def test_row_zero_is_the_sample_then_one_multinomial_call(self, n_bootstrap):
        # drawn BOOTSTRAP_CHUNK rows at a time, the same draws as one call
        m = 37
        got = bootstrap_weights(m, n_bootstrap, SEED)
        want = np.random.default_rng(SEED).multinomial(m, np.full(m, 1.0 / m),
                                                        size=n_bootstrap)
        assert got.dtype == float
        assert got.shape == (n_bootstrap + 1, m)
        assert np.array_equal(got[0], np.ones(m))
        assert np.array_equal(got[1:], want)
        assert np.all(got[1:].sum(axis=1) == m)

    def test_rejects_no_replicas(self):
        with pytest.raises(ValueError, match="replica"):
            bootstrap_weights(0, 4, SEED)

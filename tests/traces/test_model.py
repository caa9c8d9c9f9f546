"""Tests for the regime-switching price model."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenario import PolicySimulation
from repro.sim.rng import RngRegistry
from repro.traces.model import MarketParams, SpotPriceModel

DAY = 24 * 3600.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def params(**overrides):
    defaults = dict(on_demand_price=0.07)
    defaults.update(overrides)
    return MarketParams(**defaults)


@pytest.fixture
def rng():
    return RngRegistry(5).stream("model-tests")


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(on_demand_price=-1)
        with pytest.raises(ValueError):
            params(base_ratio_mean=1.5)
        with pytest.raises(ValueError):
            params(mean_reversion=1.0)
        with pytest.raises(ValueError):
            params(spike_rate_per_hour=-0.1)
        with pytest.raises(ValueError):
            params(spike_multiple_median=0.9)
        with pytest.raises(ValueError):
            params(ratio_floor=0.5, base_ratio_mean=0.2)

    def test_expected_spikes(self):
        p = params(spike_rate_per_hour=0.5)
        assert p.expected_spikes(7200.0) == pytest.approx(1.0)


class TestGeneration:
    def test_prices_positive_and_bounded(self, rng):
        model = SpotPriceModel(params(spike_rate_per_hour=1.0))
        _times, prices = model.generate(rng, 10 * DAY)
        assert (prices > 0).all()
        assert prices.max() <= 0.07 * 100.0 + 1e-9

    def test_times_strictly_sorted(self, rng):
        model = SpotPriceModel(params(spike_rate_per_hour=2.0))
        times, _prices = model.generate(rng, 5 * DAY)
        assert (np.diff(times) >= 0).all()

    def test_no_spikes_stays_below_on_demand(self, rng):
        model = SpotPriceModel(params(spike_rate_per_hour=0.0))
        _times, prices = model.generate(rng, 10 * DAY)
        assert prices.max() < 0.07

    def test_spikes_exceed_on_demand(self, rng):
        model = SpotPriceModel(params(spike_rate_per_hour=0.3))
        _times, prices = model.generate(rng, 20 * DAY)
        assert prices.max() > 0.07  # some spike fired over 20 days

    def test_base_mean_ratio_calibrated(self, rng):
        model = SpotPriceModel(params(
            spike_rate_per_hour=0.0, base_ratio_mean=0.12,
            base_log_volatility=0.03))
        times, prices = model.generate(rng, 60 * DAY)
        from repro.traces.archive import PriceTrace
        trace = PriceTrace(times, prices, "t", "z", 0.07)
        assert trace.time_weighted_mean() / 0.07 == \
            pytest.approx(0.12, rel=0.25)

    def test_start_time_offset(self, rng):
        model = SpotPriceModel(params())
        times, _prices = model.generate(rng, DAY, start_time=1000.0)
        assert times[0] == 1000.0

    def test_deterministic_given_stream(self):
        model = SpotPriceModel(params(spike_rate_per_hour=1.0))
        t1, p1 = model.generate(RngRegistry(3).stream("m"), 3 * DAY)
        t2, p2 = model.generate(RngRegistry(3).stream("m"), 3 * DAY)
        assert np.array_equal(t1, t2) and np.array_equal(p1, p2)

    def test_spike_duration_and_recovery(self, rng):
        # With long spikes and a high rate, the price must spend a
        # nontrivial fraction of time above on-demand and recover below.
        model = SpotPriceModel(params(
            spike_rate_per_hour=0.2, spike_duration_mean_s=3600.0))
        times, prices = model.generate(rng, 30 * DAY)
        above = prices > 0.07
        assert 0.005 < above.mean() < 0.6
        assert not above[-1] or not above[0]

    def test_ratio_floor_respected(self, rng):
        model = SpotPriceModel(params(
            ratio_floor=0.05, base_ratio_mean=0.06,
            base_log_volatility=0.5, spike_rate_per_hour=0.0))
        _times, prices = model.generate(rng, 5 * DAY)
        assert prices.min() >= 0.05 * 0.07 - 1e-12


def splice_oracle(on_demand_price, grid, base_ratios, spike_spans):
    """The event-loop form of :meth:`SpotPriceModel._splice`."""
    events = []  # (time, kind, payload); kinds: 0 grid, 1 spike on, 2 off
    for when, ratio in zip(grid, base_ratios):
        events.append((float(when), 0, float(ratio)))
    for begin, end, multiple in spike_spans:
        events.append((float(begin), 1, float(multiple)))
        events.append((float(end), 2, None))
    events.sort(key=lambda item: (item[0], item[1]))

    times, prices = [], []
    current_base = float(base_ratios[0] * on_demand_price)
    spike_depth = 0
    spike_price = None
    for when, kind, payload in events:
        if kind == 0:
            current_base = payload * on_demand_price
            effective = spike_price if spike_depth > 0 else current_base
        elif kind == 1:
            spike_depth += 1
            spike_price = payload * on_demand_price
            effective = spike_price
        else:
            spike_depth = max(spike_depth - 1, 0)
            if spike_depth == 0:
                spike_price = None
            effective = spike_price if spike_depth > 0 else current_base
        if times and when == times[-1]:
            prices[-1] = effective
        else:
            times.append(when)
            prices.append(effective)
    return np.asarray(times), np.asarray(prices)


def assert_splice_matches_oracle(grid, base_ratios, spike_spans):
    model = SpotPriceModel(params())
    grid = np.asarray(grid, dtype=float)
    base_ratios = np.asarray(base_ratios, dtype=float)
    times, prices = model._splice(grid, base_ratios, spike_spans)
    want_times, want_prices = splice_oracle(0.07, grid, base_ratios,
                                            spike_spans)
    assert np.array_equal(times, want_times)
    assert np.array_equal(prices, want_prices)


class TestBaseSeries:
    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           sigma=st.floats(min_value=1e-4, max_value=0.3),
           steps=st.integers(min_value=1, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_single_pole_filter(self, phi, sigma, steps, seed):
        # The explicit recurrence rounds like a direct-form IIR filter,
        # so it is bit-equal to lfilter, the test-only oracle.
        from scipy.signal import lfilter
        p = params(mean_reversion=phi, base_log_volatility=sigma,
                   ratio_floor=1e-6)
        got = SpotPriceModel(p)._base_series(np.random.default_rng(seed),
                                              steps)
        innovations = np.random.default_rng(seed).normal(0.0, sigma,
                                                         size=steps)
        deviations = lfilter([1.0], [1.0, -phi], innovations)
        want = np.clip(np.exp(np.log(p.base_ratio_mean) + deviations),
                       p.ratio_floor, 0.999)
        assert got.shape == (steps,)
        assert np.array_equal(got, want)


GRID = np.arange(8) * 300.0
RATIOS = 0.1 + np.arange(8) * 0.01
EDGE_TIMES = [0.0, 150.0, 300.0, 450.0, 600.0, 2100.0, 3000.0]


class TestSplice:
    @pytest.mark.parametrize("spans", [
        pytest.param([], id="no-spikes"),
        pytest.param([(100.0, 400.0, 3.0), (400.0, 700.0, 5.0)],
                     id="touching"),
        pytest.param([(100.0, 1500.0, 3.0), (200.0, 500.0, 7.0),
                      (250.0, 450.0, 2.0)], id="nested"),
        pytest.param([(300.0, 900.0, 4.0)], id="edges-on-grid"),
        pytest.param([(100.0, 600.0, 3.0), (600.0, 600.0, 9.0),
                      (600.0, 1200.0, 6.0), (50.0, 600.0, 2.0)],
                     id="edges-share-timestamp"),
    ])
    def test_matches_event_loop(self, spans):
        assert_splice_matches_oracle(GRID, RATIOS, spans)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from(EDGE_TIMES), min_size=2, max_size=2),
        st.floats(min_value=1.05, max_value=100.0)), max_size=8))
    def test_matches_event_loop_on_colliding_edges(self, edges):
        # Edge times from a small pool, many on grid points, so equal
        # timestamps, touching spans and nesting are the common case.
        spans = [(min(pair), max(pair), multiple)
                 for pair, multiple in edges]
        assert_splice_matches_oracle(GRID, RATIOS, spans)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_event_loop_on_generated_spikes(self, seed):
        model = SpotPriceModel(params(spike_rate_per_hour=0.3))
        rng = np.random.default_rng(seed)
        grid = np.arange(int(20 * DAY / 300.0)) * 300.0
        ratios = model._base_series(rng, len(grid))
        spans = model._spike_spans(rng, 20 * DAY, 0.0)
        assert len(spans) > 50
        assert_splice_matches_oracle(grid, ratios, spans)


#: sha256 of ``times.tobytes() + prices.tobytes()`` per market of
#: ``PolicySimulation.build_archive(seed, 183 d)``: the event-loop
#: splice and the filtered AR(1), pinned over the paper's horizon.
ARCHIVE_SHA256 = {
    (1, "m3.2xlarge"):
        "71f10ea37036efffbefb1807a2c26857ebc076936da7e997d5236cc3a055149b",
    (1, "m3.large"):
        "8bb2b55d70ccbbd3b033f2357929824ab430c759fa21bd390c2cc47f594efc03",
    (1, "m3.medium"):
        "4dd9656b44eaed38493e079ab8f9ee58432cbd1292b28613a5c07c04d12d2456",
    (1, "m3.xlarge"):
        "232e480230608a4104b2e48842ec7e10f49c1ae8ef7e8e09b87e3e995426fb58",
    (11, "m3.2xlarge"):
        "06b8ea4cbcb0a63810173ed957109527a083d0957b13e136d30068ce9deeaf0e",
    (11, "m3.large"):
        "4c9f16bd17d2df3ecad01fd95ec420e338a6eb5c43635c6afd806bc2883355d5",
    (11, "m3.medium"):
        "ea976842b999ce1bc5c1ebd41dd44dda6dd4fa5796b89b2d86d4b05e64dcac54",
    (11, "m3.xlarge"):
        "de9864ed070f770b1b22309750b30e15693d84a419217615c54434313678f1e1",
}


class TestPaperArchive:
    @pytest.mark.parametrize("seed", [1, 11])
    def test_half_year_archive_is_pinned(self, seed):
        archive = PolicySimulation.build_archive(seed, 183 * DAY)
        got = {(seed, trace.type_name): hashlib.sha256(
                   trace.times.tobytes() + trace.prices.tobytes()).hexdigest()
               for trace in archive}
        assert got == {key: digest for key, digest in ARCHIVE_SHA256.items()
                       if key[0] == seed}


class TestImportCost:
    def test_archive_build_loads_no_signal_or_stats(self):
        # Loading scipy.signal (and the scipy.stats it pulls in) costs
        # most of a grid's set-up; trace synthesis must not need it.
        code = (
            "import sys\n"
            "from repro.experiments.scenario import PolicySimulation\n"
            "PolicySimulation.build_archive(1, 14 * 86400.0)\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats')"
            " if m in sys.modules))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[]"

    def test_source_does_not_use_signal(self):
        offenders = []
        for root, _dirs, files in os.walk(SRC):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path) as handle:
                        if "scipy.signal" in handle.read():
                            offenders.append(os.path.relpath(path, SRC))
        assert offenders == []

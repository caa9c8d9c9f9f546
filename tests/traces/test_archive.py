"""Tests for PriceTrace and TraceArchive, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.archive import PriceTrace, TraceArchive

from tests.traces.test_stats import make_trace


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=5000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    times = np.cumsum(np.asarray(gaps))
    prices = draw(st.lists(
        st.floats(min_value=1e-4, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    return make_trace(list(zip(times, prices)))


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_trace([])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(10, 0.1), (5, 0.2)])

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0.0)])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PriceTrace([0, 1], [0.1], "t", "z", 0.07)

    def test_bad_on_demand_price_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0.1)], od=0.0)


class TestPriceAt:
    def test_step_function_semantics(self):
        trace = make_trace([(0, 0.02), (100, 0.05), (200, 0.03)])
        assert trace.price_at(0) == 0.02
        assert trace.price_at(99.9) == 0.02
        assert trace.price_at(100) == 0.05
        assert trace.price_at(150) == 0.05
        assert trace.price_at(1e9) == 0.03

    def test_before_first_point_extends_back(self):
        trace = make_trace([(50, 0.04)])
        assert trace.price_at(0) == 0.04

    @given(trace_strategy(), st.floats(min_value=0, max_value=2e5,
                                       allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_price_at_always_a_trace_price(self, trace, when):
        assert trace.price_at(when) in set(map(float, trace.prices))


class TestAggregates:
    def test_time_weighted_mean(self):
        trace = make_trace([(0, 0.02), (100, 0.06)])
        assert trace.time_weighted_mean(horizon=200) == \
            pytest.approx((0.02 * 100 + 0.06 * 100) / 200)

    def test_durations_with_horizon(self):
        trace = make_trace([(0, 0.02), (100, 0.06)])
        assert list(trace.durations(horizon=300)) == [100.0, 200.0]

    def test_ratios(self):
        trace = make_trace([(0, 0.035)], od=0.07)
        assert trace.ratios()[0] == pytest.approx(0.5)

    @given(trace_strategy())
    @settings(max_examples=60, deadline=None)
    def test_mean_within_price_range(self, trace):
        mean = trace.time_weighted_mean(horizon=trace.end + 100)
        assert trace.prices.min() - 1e-12 <= mean <= trace.prices.max() + 1e-12


class TestSlice:
    def test_slice_keeps_price_in_effect(self):
        trace = make_trace([(0, 0.02), (100, 0.06), (200, 0.03)])
        window = trace.slice(150, 250)
        assert window.price_at(150) == 0.06
        assert window.price_at(210) == 0.03
        assert window.start == 150

    def test_slice_empty_window_rejected(self):
        trace = make_trace([(0, 0.02)])
        with pytest.raises(ValueError):
            trace.slice(10, 10)

    @given(trace_strategy(),
           st.floats(min_value=0, max_value=1e5, allow_nan=False),
           st.floats(min_value=1.0, max_value=1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_slice_agrees_with_original(self, trace, start, width):
        window = trace.slice(start, start + width)
        for probe in (start, start + width / 2):
            assert window.price_at(probe) == trace.price_at(probe)


class TestQuantize:
    def test_rounds_and_dedupes(self):
        trace = make_trace([(0, 0.020004), (10, 0.020001), (20, 0.05)])
        quantized = trace.quantize(4)
        assert len(quantized) == 2
        assert quantized.prices[0] == pytest.approx(0.02)

    def test_never_rounds_to_zero(self):
        trace = make_trace([(0, 1e-6)])
        assert quantized_min(trace) > 0

    @given(trace_strategy())
    @settings(max_examples=60, deadline=None)
    def test_quantize_error_bounded(self, trace):
        quantized = trace.quantize(4)
        for when in trace.times:
            assert abs(quantized.price_at(float(when))
                       - trace.price_at(float(when))) <= 5.1e-5 + 1e-4


def quantized_min(trace):
    return trace.quantize(4).prices.min()


class TestCrossings:
    def test_counts_upward_crossings(self):
        trace = make_trace(
            [(0, 0.02), (10, 0.09), (20, 0.03), (30, 0.10), (40, 0.12)])
        assert list(trace.crossings_above(0.07)) == [10.0, 30.0]

    def test_initial_above_not_a_crossing_then_recross(self):
        trace = make_trace([(0, 0.09), (10, 0.02), (20, 0.09)])
        crossings = trace.crossings_above(0.07)
        assert 20.0 in crossings


class TestArchive:
    def test_add_get_contains(self):
        archive = TraceArchive([make_trace([(0, 0.02)])])
        assert ("m3.medium", "z1") in archive
        assert archive.get("m3.medium", "z1").price_at(0) == 0.02

    def test_duplicate_rejected(self):
        archive = TraceArchive([make_trace([(0, 0.02)])])
        with pytest.raises(ValueError):
            archive.add(make_trace([(0, 0.03)]))

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            TraceArchive().get("m3.medium", "zX")

    def test_save_load_roundtrip(self, tmp_path):
        archive = TraceArchive([
            make_trace([(0, 0.021), (50.5, 0.033)]),
        ])
        archive.save(str(tmp_path / "traces"))
        loaded = TraceArchive.load(str(tmp_path / "traces"))
        trace = loaded.get("m3.medium", "z1")
        assert trace.on_demand_price == 0.07
        assert list(trace.times) == [0.0, 50.5]
        assert trace.prices[1] == pytest.approx(0.033)


class TestNpzRoundTrip:
    def test_bit_exact(self, tmp_path):
        """npz persistence is lossless — the parallel grid's invariant."""
        archive = TraceArchive([
            make_trace([(0, 0.07 / 3), (1e7 / 3, 0.0123456789)]),
            PriceTrace([0.0, 99.9], [0.5, 0.25], "m3.large", "z2", 0.14),
        ])
        path = str(tmp_path / "archive.npz")
        archive.save_npz(path)
        loaded = TraceArchive.load_npz(path)
        assert loaded.keys() == archive.keys()
        for original in archive:
            trace = loaded.get(*original.key)
            assert trace.times.tobytes() == original.times.tobytes()
            assert trace.prices.tobytes() == original.prices.tobytes()
            assert trace.on_demand_price == original.on_demand_price

    def test_generated_archive_round_trips(self, tmp_path):
        from repro.traces.calibration import M3_MARKET_PARAMS
        from repro.traces.generator import TraceGenerator
        generator = TraceGenerator(seed=3)
        params = M3_MARKET_PARAMS["m3.medium"]
        archive = TraceArchive([
            generator.generate_market("m3.medium", "z1", params,
                                      duration_s=5 * 24 * 3600.0),
        ])
        path = str(tmp_path / "gen.npz")
        archive.save_npz(path)
        loaded = TraceArchive.load_npz(path)
        original = archive.get("m3.medium", "z1")
        trace = loaded.get("m3.medium", "z1")
        assert np.array_equal(trace.times, original.times)
        assert np.array_equal(trace.prices, original.prices)

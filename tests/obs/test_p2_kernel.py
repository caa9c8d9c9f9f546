"""Differential tests of the fused P² batch kernel.

:class:`SeedP2Quantile` below is the textbook per-value P² update, one
observation per call with the parabolic and linear predictions as
helpers.  It is the oracle: :meth:`P2Quantile.observe_many` must leave
heights, positions, desired positions, count and the estimate
bit-equal to it for any stream and any way of cutting the stream into
batches.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Histogram, P2Quantile


class SeedP2Quantile:
    """The per-value P² algorithm [Jain & Chlamtac, CACM'85]."""

    def __init__(self, p):
        self.p = p
        self._heights = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        positions = self._positions
        for i in range(k + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1 and positions[i + 1] - positions[i] > 1) or \
                    (delta <= -1 and positions[i - 1] - positions[i] < -1):
                step = 1 if delta > 0 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i, step):
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i, step):
        q, n = self._heights, self._positions
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    value = P2Quantile.value


def bits(values):
    """Floats as hex strings, so -0.0 and 0.0 compare unequal."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def state(estimator):
    return (bits(estimator._heights), list(estimator._positions),
            bits(estimator._desired), estimator.count,
            None if estimator.value is None else estimator.value.hex())


def split(values, cuts):
    """``values`` cut into consecutive batches at the sorted ``cuts``."""
    bounds = [0] + sorted(c % (len(values) + 1) for c in cuts) \
        + [len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


#: Few distinct values, so ties with the marker heights are common.
tied = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, 3.0, 10.0, -4.0])
spread = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
streams = st.lists(st.one_of(tied, spread), max_size=300)
quantiles = st.floats(0.001, 0.999)
cut_lists = st.lists(st.integers(0, 300), max_size=12)

BOUNDED = settings(max_examples=50, deadline=None)


class TestP2Kernel:
    @BOUNDED
    @given(p=quantiles, values=streams, cuts=cut_lists)
    def test_batches_match_per_value_oracle(self, p, values, cuts):
        oracle = SeedP2Quantile(p)
        for value in values:
            oracle.observe(value)
        fused = P2Quantile(p)
        for batch in split(values, cuts):
            fused.observe_many(batch)
        assert state(fused) == state(oracle)

    @BOUNDED
    @given(p=quantiles, values=st.lists(st.one_of(tied, spread),
                                        max_size=5))
    def test_warm_up_matches_oracle(self, p, values):
        oracle = SeedP2Quantile(p)
        fused = P2Quantile(p)
        for value in values:
            oracle.observe(value)
            fused.observe(value)
            assert state(fused) == state(oracle)

    @BOUNDED
    @given(p=quantiles, values=streams)
    def test_single_observations_match_oracle(self, p, values):
        oracle = SeedP2Quantile(p)
        fused = P2Quantile(p)
        for value in values:
            oracle.observe(value)
            fused.observe(value)
        assert state(fused) == state(oracle)

    def test_empty_batch_is_a_no_op(self):
        fused = P2Quantile(0.5)
        fused.observe_many(())
        assert fused.count == 0 and fused.value is None
        fused.observe_many([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
        before = state(fused)
        fused.observe_many([])
        assert state(fused) == before


class TestHistogramBatch:
    @BOUNDED
    @given(values=streams, cuts=cut_lists)
    def test_batches_match_sequential_observe(self, values, cuts):
        sequential = Histogram("h", {})
        for value in values:
            sequential.observe(value)
        batched = Histogram("h", {})
        for batch in split(values, cuts):
            batched.observe_many(batch)
        assert batched.count == sequential.count
        assert bits([batched.sum]) == bits([sequential.sum])
        assert batched.min == sequential.min
        assert batched.max == sequential.max
        assert batched.quantiles == sequential.quantiles

    @BOUNDED
    @given(values=streams, cuts=cut_lists)
    def test_batches_match_per_value_oracle(self, values, cuts):
        # count/sum/min/max the per-value way, quantiles from the oracle.
        total, lo, hi = 0.0, None, None
        oracles = {q: SeedP2Quantile(q) for q in Histogram.DEFAULT_QUANTILES}
        for value in values:
            total += value
            lo = value if lo is None else min(lo, value)
            hi = value if hi is None else max(hi, value)
            for oracle in oracles.values():
                oracle.observe(value)
        batched = Histogram("h", {})
        for batch in split(values, cuts):
            batched.observe_many(batch)
        assert batched.count == len(values)
        assert bits([batched.sum]) == bits([total])
        assert (batched.min, batched.max) == (lo, hi)
        for q, oracle in oracles.items():
            assert state(batched._estimators[q]) == state(oracle)

    def test_accepts_ints_and_numpy_scalars(self):
        import numpy as np

        histogram = Histogram("h", {})
        histogram.observe_many([1, np.float64(2.5), 3])
        assert type(histogram.sum) is float
        assert histogram.sum == 6.5
        assert (histogram.min, histogram.max) == (1.0, 3.0)

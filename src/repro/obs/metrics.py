"""The metrics registry: counters, gauges, streaming histograms.

Metrics are keyed by a name plus a set of labels, Prometheus-style:
``registry.histogram("migration_downtime_seconds",
mechanism="spotcheck-lazy")`` returns one series per distinct label
set.  Histograms estimate p50/p95/p99 with the P² algorithm [Jain &
Chlamtac, CACM'85] — five markers per tracked quantile, no sample
storage — so a million-observation series costs the same memory as a
ten-observation one.

The P² update has one implementation, the batch kernel
:meth:`P2Quantile.observe_many`: it holds the markers in locals across
a batch and writes them back once, so a caller that observes several
values at a time (:meth:`Histogram.observe_many`; the SLA ledgers feed
eight per accounted batch) pays one call per batch, not one per value.
Single observations go through the same kernel, and a batch leaves
every marker bit-identical to observing its values one by one.
"""


def _label_key(labels):
    return tuple(sorted(labels.items()))


class P2Quantile:
    """Streaming estimate of one quantile (the P² algorithm).

    Maintains five markers whose heights converge on the quantile; the
    first five observations are exact.
    """

    def __init__(self, p):
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        self.p = p
        self._heights = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def observe(self, value):
        self.observe_many((float(value),))

    def observe_many(self, values):
        """Feed a sequence of floats, in order, through the P² update.

        Bit-identical to observing them one at a time: the marker
        heights, positions and the three live desired positions stay
        in locals for the whole batch, the cell search and the three
        marker adjustments are unrolled with the parabolic and linear
        predictions inlined, and every float operation keeps the
        textbook per-value order.
        """
        heights = self._heights
        total = len(values)
        start = 0
        while len(heights) < 5 and start < total:
            # Warm-up: the first five observations are stored exactly.
            heights.append(values[start])
            heights.sort()
            start += 1
        self.count += total
        if start == total:
            return
        q0, q1, q2, q3, q4 = heights
        positions = self._positions
        n0, n1, n2, n3, n4 = positions
        desired = self._desired
        d1, d2, d3 = desired[1], desired[2], desired[3]
        _, i1, i2, i3, _ = self._increments
        for index in range(start, total):
            v = values[index]
            # Find the cell k such that q[k] <= v < q[k+1]; every
            # marker above it moves up one position.
            if v < q0:
                q0 = v
                n1 += 1
                n2 += 1
                n3 += 1
            elif v >= q4:
                q4 = v
            elif not v >= q1:
                n1 += 1
                n2 += 1
                n3 += 1
            elif not v >= q2:
                n2 += 1
                n3 += 1
            elif not v >= q3:
                n3 += 1
            n4 += 1
            d1 += i1
            d2 += i2
            d3 += i3
            # Adjust the three middle markers toward their desired
            # positions: parabolic prediction, linear when it would
            # leave the neighbours' bracket.
            delta = d1 - n1
            if (delta >= 1 and n2 - n1 > 1) or \
                    (delta <= -1 and n0 - n1 < -1):
                step = 1 if delta > 0 else -1
                candidate = q1 + step / (n2 - n0) * (
                    (n1 - n0 + step) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - step) * (q1 - q0) / (n1 - n0))
                if q0 < candidate < q2:
                    q1 = candidate
                elif step > 0:
                    q1 = q1 + step * (q2 - q1) / (n2 - n1)
                else:
                    q1 = q1 + step * (q0 - q1) / (n0 - n1)
                n1 += step
            delta = d2 - n2
            if (delta >= 1 and n3 - n2 > 1) or \
                    (delta <= -1 and n1 - n2 < -1):
                step = 1 if delta > 0 else -1
                candidate = q2 + step / (n3 - n1) * (
                    (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - step) * (q2 - q1) / (n2 - n1))
                if q1 < candidate < q3:
                    q2 = candidate
                elif step > 0:
                    q2 = q2 + step * (q3 - q2) / (n3 - n2)
                else:
                    q2 = q2 + step * (q1 - q2) / (n1 - n2)
                n2 += step
            delta = d3 - n3
            if (delta >= 1 and n4 - n3 > 1) or \
                    (delta <= -1 and n2 - n3 < -1):
                step = 1 if delta > 0 else -1
                candidate = q3 + step / (n4 - n2) * (
                    (n3 - n2 + step) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - step) * (q3 - q2) / (n3 - n2))
                if q2 < candidate < q4:
                    q3 = candidate
                elif step > 0:
                    q3 = q3 + step * (q4 - q3) / (n4 - n3)
                else:
                    q3 = q3 + step * (q2 - q3) / (n2 - n3)
                n3 += step
        heights[:] = (q0, q1, q2, q3, q4)
        positions[:] = (n0, n1, n2, n3, n4)
        desired[1], desired[2], desired[3] = d1, d2, d3
        # The outer desired positions advance by exact integer steps
        # (increments 0 and 1 from 1.0 and 5.0), so one add per batch
        # lands on the same bits as one per value.
        desired[4] += total - start

    @property
    def value(self):
        """The current quantile estimate (``None`` before any sample)."""
        heights = self._heights
        if not heights:
            return None
        if self.count <= len(heights):
            # Exact while all samples are stored.
            rank = max(int(round(self.p * self.count)) - 1, 0)
            return sorted(heights)[min(rank, self.count - 1)]
        return heights[2]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount


class Histogram:
    """Streaming distribution summary: count, sum, min/max, quantiles."""

    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, name, labels, quantiles=DEFAULT_QUANTILES):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._estimators = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value):
        self.observe_many((value,))

    def observe_many(self, values):
        """Observe several values in order, as repeated :meth:`observe`
        would: ``sum`` accumulates one value at a time, and each
        quantile estimator runs its batch kernel once."""
        values = [float(value) for value in values]
        if not values:
            return
        total, lo, hi = self.sum, self.min, self.max
        if lo is None:
            lo = hi = values[0]
        for value in values:
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count += len(values)
        self.sum, self.min, self.max = total, lo, hi
        for estimator in self._estimators.values():
            estimator.observe_many(values)

    def quantile(self, q):
        """The estimate for a tracked quantile ``q``."""
        return self._estimators[q].value

    @property
    def quantiles(self):
        return {q: est.value for q, est in sorted(self._estimators.items())}

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """All metric series of one simulation, keyed by (name, labels)."""

    def __init__(self):
        self._series = {}

    def _get(self, cls, name, labels, **kwargs):
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(name, dict(labels), **kwargs)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise TypeError(
                f"{name} already registered as "
                f"{type(series).__name__}, not {cls.__name__}")
        return series

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(Histogram, name, labels)

    def series(self):
        """All series, sorted by (name, labels) for stable export."""
        return [self._series[key] for key in sorted(self._series)]

    def find(self, name):
        """Every series registered under ``name`` (any label set)."""
        return [s for s in self.series() if s.name == name]

    def __len__(self):
        return len(self._series)

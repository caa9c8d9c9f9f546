"""Price-trace storage: the :class:`PriceTrace` container and archives.

A trace is a step function: ``prices[i]`` is in effect from ``times[i]``
until ``times[i+1]``.  Traces are immutable; transformations return new
traces.
"""

import csv
import json
import os

import numpy as np


class PriceTrace:
    """A step-function price series for one (type, zone) market.

    Parameters
    ----------
    times:
        Monotonically non-decreasing change times, seconds.
    prices:
        Price in effect from each change time, $/hour.
    type_name, zone_name:
        Market identity.
    on_demand_price:
        The equivalent on-demand price, used for ratio statistics.
    """

    def __init__(self, times, prices, type_name, zone_name, on_demand_price):
        times = np.asarray(times, dtype=float)
        prices = np.asarray(prices, dtype=float)
        if times.ndim != 1 or times.shape != prices.shape:
            raise ValueError("times and prices must be equal-length 1-D arrays")
        if len(times) == 0:
            raise ValueError("a trace needs at least one point")
        if np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        if np.any(prices <= 0):
            raise ValueError("prices must be positive")
        if on_demand_price <= 0:
            raise ValueError("on-demand price must be positive")
        self.times = times
        self.prices = prices
        self.type_name = type_name
        self.zone_name = zone_name
        self.on_demand_price = float(on_demand_price)

    @property
    def key(self):
        return (self.type_name, self.zone_name)

    def __len__(self):
        return len(self.times)

    @property
    def start(self):
        return float(self.times[0])

    @property
    def end(self):
        return float(self.times[-1])

    def arrays(self):
        """(times, prices) arrays — the :class:`SpotMarket` interface."""
        return self.times, self.prices

    def price_at(self, when):
        """Price in effect at time ``when``."""
        idx = int(np.searchsorted(self.times, when, side="right")) - 1
        return float(self.prices[max(idx, 0)])

    def durations(self, horizon=None):
        """Seconds each price was in effect; last segment runs to ``horizon``."""
        horizon = self.end if horizon is None else float(horizon)
        ends = np.append(self.times[1:], max(horizon, self.end))
        return np.maximum(ends - self.times, 0.0)

    def time_weighted_mean(self, horizon=None):
        """Time-average price over the trace."""
        weights = self.durations(horizon)
        total = weights.sum()
        if total == 0:
            return float(self.prices[-1])
        return float(np.dot(self.prices, weights) / total)

    def ratios(self):
        """Price / on-demand-price array."""
        return self.prices / self.on_demand_price

    def slice(self, start, end):
        """The trace restricted to [start, end), keeping the price in
        effect at ``start`` as the first point."""
        if end <= start:
            raise ValueError("end must exceed start")
        mask = (self.times >= start) & (self.times < end)
        times = self.times[mask]
        prices = self.prices[mask]
        if len(times) == 0 or times[0] > start:
            times = np.insert(times, 0, start)
            prices = np.insert(prices, 0, self.price_at(start))
        return PriceTrace(times, prices, self.type_name, self.zone_name,
                          self.on_demand_price)

    def quantize(self, decimals=4):
        """Round prices and drop repeated consecutive values.

        EC2 publishes prices at sub-cent granularity; quantizing the
        synthetic trace the same way collapses micro-fluctuations and
        shrinks the event count of long macro simulations.
        """
        prices = np.round(self.prices, decimals)
        prices = np.maximum(prices, 10.0 ** -decimals)
        keep = np.ones(len(prices), dtype=bool)
        keep[1:] = prices[1:] != prices[:-1]
        return PriceTrace(self.times[keep], prices[keep], self.type_name,
                          self.zone_name, self.on_demand_price)

    def crossings_above(self, threshold):
        """Times at which the price crosses from <= threshold to above it."""
        above = self.prices > threshold
        rising = above & ~np.insert(above[:-1], 0, False)
        return self.times[rising]

    def exact_hop_chain(self):
        """Whether ``t[i-1] + (t[i] - t[i-1])`` lands exactly on ``t[i]``
        for every consecutive pair.

        When true (ubiquitously so for real traces), a step driver's
        accumulated float clock equals the trace times themselves, and
        the skipping drive can schedule wake-ups at ``times[k]``
        directly instead of folding hop by hop.  Cached — the check is
        O(n) and the answer is immutable.
        """
        cached = getattr(self, "_exact_hop_chain", None)
        if cached is None:
            if len(self.times) > 1:
                hop = self.times[:-1] + (self.times[1:] - self.times[:-1])
                cached = bool(np.all(hop == self.times[1:]))
            else:
                cached = True
            self._exact_hop_chain = cached
        return cached

    def __repr__(self):
        return (f"<PriceTrace {self.type_name}/{self.zone_name} "
                f"{len(self)} points over {self.end - self.start:.0f}s>")


class TraceArchive:
    """A keyed collection of traces with CSV-directory persistence."""

    def __init__(self, traces=()):
        self._traces = {}
        for trace in traces:
            self.add(trace)

    def add(self, trace):
        if trace.key in self._traces:
            raise ValueError(f"duplicate trace for market {trace.key}")
        self._traces[trace.key] = trace

    def get(self, type_name, zone_name):
        try:
            return self._traces[(type_name, zone_name)]
        except KeyError:
            raise KeyError(
                f"no trace for market ({type_name}, {zone_name})") from None

    def __iter__(self):
        return iter(self._traces.values())

    def __len__(self):
        return len(self._traces)

    def __contains__(self, key):
        return key in self._traces

    def keys(self):
        return list(self._traces)

    def save(self, directory):
        """Write one CSV per trace plus an index.json into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        index = []
        for trace in self:
            filename = f"{trace.type_name}_{trace.zone_name}.csv".replace(
                "/", "_")
            index.append({
                "file": filename,
                "type": trace.type_name,
                "zone": trace.zone_name,
                "on_demand_price": trace.on_demand_price,
            })
            with open(os.path.join(directory, filename), "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["time_s", "price_per_hour"])
                for when, price in zip(trace.times, trace.prices):
                    writer.writerow([f"{when:.3f}", f"{price:.6f}"])
        with open(os.path.join(directory, "index.json"), "w") as f:
            json.dump(index, f, indent=2)

    def save_npz(self, path):
        """Write the archive to one ``.npz`` file, losslessly.

        Unlike the CSV directory format (:meth:`save`), which rounds
        times and prices for readability, the npz form stores the raw
        float64 arrays — a :meth:`load_npz` round-trip is bit-exact.
        The parallel grid runner relies on this: workers that load a
        shared archive from disk must see byte-identical prices to a
        serial run that kept the archive in memory.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        meta = []
        arrays = {}
        for i, trace in enumerate(self):
            meta.append({
                "type": trace.type_name,
                "zone": trace.zone_name,
                "on_demand_price": trace.on_demand_price,
            })
            arrays[f"times_{i}"] = trace.times
            arrays[f"prices_{i}"] = trace.prices
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

    @classmethod
    def load_npz(cls, path):
        """Load an archive previously written by :meth:`save_npz`."""
        archive = cls()
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            for i, entry in enumerate(meta):
                archive.add(PriceTrace(
                    data[f"times_{i}"], data[f"prices_{i}"], entry["type"],
                    entry["zone"], entry["on_demand_price"]))
        return archive

    @classmethod
    def load(cls, directory):
        """Load an archive previously written by :meth:`save`."""
        with open(os.path.join(directory, "index.json")) as f:
            index = json.load(f)
        archive = cls()
        for entry in index:
            times, prices = [], []
            with open(os.path.join(directory, entry["file"]), newline="") as f:
                for row in csv.DictReader(f):
                    times.append(float(row["time_s"]))
                    prices.append(float(row["price_per_hour"]))
            archive.add(PriceTrace(times, prices, entry["type"],
                                   entry["zone"], entry["on_demand_price"]))
        return archive

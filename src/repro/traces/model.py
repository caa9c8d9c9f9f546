"""The regime-switching spot-price model.

Each market alternates between two regimes:

* **Base regime** — the price hovers well below the on-demand price.
  The log of the spot/on-demand ratio follows a mean-reverting AR(1)
  process, reproducing the paper's observation that "spot prices are
  extremely low on average compared to the equivalent prices for
  on-demand servers" (Fig 6a).

* **Spike regime** — entered as a Poisson process.  The price jumps to
  a heavy-tailed multiple of the on-demand price (the paper's Figure 1
  shows m1.small reaching ~80x its on-demand price) and stays there for
  an exponentially distributed duration, reproducing the "large price
  spikes are the norm" finding (Fig 6b).

Markets are driven by independent RNG streams, which yields the
near-zero cross-market correlations of Figures 6c/6d.
"""

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MarketParams:
    """Calibration knobs for one market's price process.

    Attributes
    ----------
    on_demand_price:
        Fixed on-demand price, $/hour.
    base_ratio_mean:
        Time-average spot/on-demand ratio in the base regime.
    base_log_volatility:
        Per-step standard deviation of the log-ratio innovation.
    mean_reversion:
        AR(1) coefficient toward the base mean (0 < phi < 1; values
        close to 1 give slowly wandering prices).
    spike_rate_per_hour:
        Poisson rate of entering the spike regime.
    spike_multiple_median:
        Median of the spike price as a multiple of the on-demand price.
    spike_multiple_sigma:
        Log-normal sigma of the spike multiple (heavy tail).
    spike_multiple_max:
        Hard cap on the spike multiple (EC2 capped bids around
        ~100x on-demand; Figure 1 shows spikes to ~83x).
    spike_duration_mean_s:
        Mean dwell time in the spike regime, seconds.
    spike_onset_steps:
        Number of intermediate price points on the way up to a spike's
        peak (demand builds over minutes, not instantaneously — the
        ramps are visible in Figure 1 and are what makes revocation
        *prediction* possible at all).  0 restores step spikes.
    spike_onset_interval_s:
        Spacing of the onset ramp points, seconds.
    change_interval_s:
        Seconds between consecutive base-regime price updates.
    ratio_floor:
        Lower bound on the spot/on-demand ratio (markets never hit 0).
    """

    on_demand_price: float
    base_ratio_mean: float = 0.12
    base_log_volatility: float = 0.05
    mean_reversion: float = 0.98
    spike_rate_per_hour: float = 0.05
    spike_multiple_median: float = 4.0
    spike_multiple_sigma: float = 1.2
    spike_multiple_max: float = 100.0
    spike_duration_mean_s: float = 900.0
    spike_onset_steps: int = 3
    spike_onset_interval_s: float = 60.0
    change_interval_s: float = 300.0
    ratio_floor: float = 0.01

    def __post_init__(self):
        if self.on_demand_price <= 0:
            raise ValueError("on_demand_price must be positive")
        if not 0 < self.base_ratio_mean < 1:
            raise ValueError("base_ratio_mean must lie in (0, 1)")
        if not 0 < self.mean_reversion < 1:
            raise ValueError("mean_reversion must lie in (0, 1)")
        if self.spike_rate_per_hour < 0:
            raise ValueError("spike_rate_per_hour must be non-negative")
        if self.spike_multiple_median <= 1:
            raise ValueError("spike_multiple_median must exceed 1")
        if self.change_interval_s <= 0:
            raise ValueError("change_interval_s must be positive")
        if not 0 < self.ratio_floor < self.base_ratio_mean:
            raise ValueError("ratio_floor must lie in (0, base_ratio_mean)")

    def expected_spikes(self, duration_s):
        """Expected number of spike entries over ``duration_s`` seconds."""
        return self.spike_rate_per_hour * duration_s / 3600.0


class SpotPriceModel:
    """Synthesizes one market's price series from :class:`MarketParams`."""

    def __init__(self, params):
        self.params = params

    def generate(self, rng, duration_s, start_time=0.0):
        """Return (times, prices) arrays covering ``duration_s`` seconds.

        The base series is generated on the regular ``change_interval_s``
        grid; spikes are spliced in at their Poisson arrival times and
        removed at the end of their dwell, so spike edges fall off-grid
        exactly as real EC2 price changes do.
        """
        p = self.params
        steps = max(int(np.ceil(duration_s / p.change_interval_s)), 1)
        grid = start_time + np.arange(steps) * p.change_interval_s

        base_ratios = self._base_series(rng, steps)
        spike_spans = self._spike_spans(rng, duration_s, start_time)

        return self._splice(grid, base_ratios, spike_spans)

    # -- internals -------------------------------------------------------

    def _base_series(self, rng, steps):
        """Mean-reverting AR(1) on the log ratio, floored."""
        p = self.params
        mean_log = np.log(p.base_ratio_mean)
        innovations = rng.normal(0.0, p.base_log_volatility, size=steps)
        # x[t] = mean + phi * (x[t-1] - mean) + eps[t], as an explicit
        # recurrence on the deviations: each step rounds phi * y and then
        # the sum, exactly as a direct-form single-pole IIR filter does.
        phi = p.mean_reversion
        deviations = np.fromiter(
            itertools.accumulate(innovations.tolist(),
                                 lambda y, eps: phi * y + eps),
            float, steps)
        ratios = np.exp(mean_log + deviations)
        return np.clip(ratios, p.ratio_floor, 0.999)

    def _spike_spans(self, rng, duration_s, start_time):
        """Poisson spike arrivals: list of (start, end, multiple).

        Each spike is expanded into an onset ramp (geometric climb from
        the base level to the peak over ``spike_onset_steps`` points)
        followed by the peak dwell.
        """
        p = self.params
        expected = p.expected_spikes(duration_s)
        if expected == 0:
            return []
        n_spikes = rng.poisson(expected)
        starts = np.sort(rng.uniform(0.0, duration_s, size=n_spikes))
        durations = rng.exponential(p.spike_duration_mean_s, size=n_spikes)
        multiples = np.exp(rng.normal(np.log(p.spike_multiple_median),
                                      p.spike_multiple_sigma, size=n_spikes))
        multiples = np.clip(multiples, 1.05, p.spike_multiple_max)
        spans = []
        for offset, dwell, multiple in zip(starts, durations, multiples):
            begin = start_time + offset
            end = min(begin + max(dwell, 1.0), start_time + duration_s)
            for sub_begin, sub_end, sub_multiple in self._with_onset(
                    begin, end, multiple, start_time):
                if spans and sub_begin < spans[-1][1]:
                    # Overlapping spikes merge; keep the larger multiple.
                    prev_begin, prev_end, prev_mult = spans[-1]
                    spans[-1] = (prev_begin, max(prev_end, sub_end),
                                 max(prev_mult, sub_multiple))
                else:
                    spans.append((sub_begin, sub_end, sub_multiple))
        return spans

    def _with_onset(self, begin, end, multiple, start_time):
        """Split one spike into its ramp sub-spans plus the peak dwell."""
        p = self.params
        steps = p.spike_onset_steps
        if steps <= 0:
            return [(begin, end, multiple)]
        ramp_span = steps * p.spike_onset_interval_s
        ramp_begin = max(begin - ramp_span, start_time)
        if ramp_begin >= begin or end <= begin:
            return [(begin, end, multiple)]
        sub_spans = []
        base = p.base_ratio_mean
        previous = ramp_begin
        for i in range(1, steps + 1):
            fraction = i / (steps + 1.0)
            level = base * (multiple / base) ** fraction
            point = ramp_begin + i * (begin - ramp_begin) / steps
            sub_spans.append((previous, point, max(level, 1e-6)))
            previous = point
        sub_spans.append((begin, end, multiple))
        return sub_spans

    def _splice(self, grid, base_ratios, spike_spans):
        """Merge the base grid and spike edges into one step function.

        Events are grid points (kind 0), spike-on edges (kind 1) and
        spike-off edges (kind 2), ordered by (time, kind) with ties kept
        in input order.  After each event the price is the latest
        spike-on multiple while any spike is open, else the latest base
        ratio; among events sharing a timestamp the last one wins.
        Every span has ``begin <= end`` and starts at or after
        ``grid[0]``, so each off edge follows its on edge and a base
        point precedes every edge.
        """
        odp = self.params.on_demand_price
        spans = np.asarray(spike_spans, dtype=float).reshape(-1, 3)
        when = np.concatenate([grid, spans[:, :2].ravel()])
        kind = np.concatenate([np.zeros(len(grid), dtype=np.int8),
                               np.tile(np.array([1, 2], dtype=np.int8),
                                       len(spans))])
        payload = np.concatenate([base_ratios,
                                  np.repeat(spans[:, 2], 2)]) * odp
        order = np.lexsort((kind, when))
        when, kind, payload = when[order], kind[order], payload[order]

        open_spikes = np.array([0, 1, -1])[kind].cumsum()
        index = np.arange(len(when))
        last_on = np.maximum.accumulate(np.where(kind == 1, index, -1))
        last_base = np.maximum.accumulate(np.where(kind == 0, index, -1))
        effective = np.where(open_spikes > 0, payload[last_on],
                             payload[last_base])

        # The last event at each timestamp wins.
        last = np.append(when[1:] != when[:-1], True)
        return when[last], effective[last]

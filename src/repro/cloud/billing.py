"""Usage metering and billing.

On-demand instances bill at their fixed hourly price.  Spot instances
bill at the *market* price over time (not the bid), which is how EC2
charged in 2014.  Spot cost is computed lazily by integrating the
market's price trace over the instance's lifetime — exact, and far
cheaper than tracking every price change per instance during a
six-month simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.cloud.instances import Market


@dataclass
class UsageRecord:
    """One instance's metered usage."""

    instance_id: str
    type_name: str
    zone_name: str
    market: Market
    start: float
    end: float = None
    cost: float = 0.0


def integrate_trace(times, prices, start, end):
    """Integral of a step-function price over [start, end], $-seconds."""
    if end <= start:
        return 0.0
    # Segments overlapping [start, end]; the price in effect at `start`
    # is the last change at or before it (extended backwards if the
    # trace begins later, matching PriceTrace.price_at).
    idx_lo = max(int(np.searchsorted(times, start, side="right")) - 1, 0)
    idx_hi = int(np.searchsorted(times, end, side="left"))
    idx_hi = max(idx_hi, idx_lo + 1)
    seg_times = times[idx_lo:idx_hi].astype(float).copy()
    seg_prices = prices[idx_lo:idx_hi].astype(float)
    seg_times[0] = start
    ends = np.minimum(np.append(seg_times[1:], end), end)
    durations = np.maximum(ends - seg_times, 0.0)
    return float(np.dot(seg_prices, durations))


class BillingLedger:
    """Accumulates the cost of every native instance ever run.

    Parameters
    ----------
    env:
        Simulation environment (for the clock).
    hourly_rounding:
        If True, round each instance's total runtime up to whole hours
        as 2014-era EC2 did; the default False integrates exactly.
    """

    SECONDS_PER_HOUR = 3600.0

    def __init__(self, env, hourly_rounding=False):
        self.env = env
        self.hourly_rounding = hourly_rounding
        self.records = {}

    def open(self, instance):
        """Start metering ``instance`` at the current time."""
        if instance.id in self.records:
            raise ValueError(f"{instance.id} already metered")
        self.records[instance.id] = UsageRecord(
            instance_id=instance.id,
            type_name=instance.itype.name,
            zone_name=instance.zone.name,
            market=instance.market,
            start=self.env.now,
        )

    def close(self, instance, market=None):
        """Stop metering and compute the final cost.

        ``market`` is the instance's spot market (required for spot
        instances, ignored for on-demand ones).
        """
        record = self.records[instance.id]
        if record.end is not None:
            return record.cost
        record.end = self.env.now
        record.cost = self._cost_between(
            record, instance, market, record.start, record.end)
        return record.cost

    def accrued_cost(self, instance, market=None):
        """Cost of a still-open record from its start to now."""
        record = self.records[instance.id]
        if record.end is not None:
            return record.cost
        return self._cost_between(
            record, instance, market, record.start, self.env.now)

    def _cost_between(self, record, instance, market, start, end):
        seconds = end - start
        if record.market is Market.ON_DEMAND:
            hours = self._billable_hours(seconds)
            return hours * instance.itype.on_demand_price
        if market is None:
            raise ValueError("costing a spot record requires its market")
        times, prices = market.trace.arrays()
        dollar_seconds = integrate_trace(times, prices, start, end)
        cost = dollar_seconds / self.SECONDS_PER_HOUR
        if self.hourly_rounding and seconds > 0:
            run_hours = seconds / self.SECONDS_PER_HOUR
            cost *= math.ceil(run_hours) / run_hours
        return cost

    def _billable_hours(self, seconds):
        hours = seconds / self.SECONDS_PER_HOUR
        if self.hourly_rounding:
            hours = float(math.ceil(hours)) if hours > 0 else 0.0
        return hours

    # -- reporting -----------------------------------------------------

    def total_cost(self, market=None):
        """Total cost across closed records, optionally for one market."""
        return sum(
            record.cost for record in self.records.values()
            if record.end is not None
            and (market is None or record.market is market))

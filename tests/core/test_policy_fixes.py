"""Regression tests for the policy-layer fixes that shipped with the
portfolio family: the 4P-ST clock, the knee bid floor plumbing, the
4P-COST price window, and the predictor's batch-observe
equivalence."""

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.spot_market import SpotMarket
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.policies.allocation import (
    StabilityWeightedPolicy,
    make_allocation_policy,
)
from repro.core.policies.bidding import make_bid_policy
from repro.core.policies.prediction import (
    PredictionStats,
    RevocationPredictor,
)
from repro.core.pools import SpotPool
from repro.obs import Observability
from repro.sim.kernel import Environment
from repro.traces.archive import TraceArchive

from tests.conftest import flat_trace, step_trace

MEDIUM = M3_CATALOG.get("m3.medium")
DAY = 24 * 3600.0


def medium_pool(env, zone, trace=None):
    trace = trace or flat_trace(0.01)
    market = SpotMarket(env, MEDIUM, zone, trace)
    return SpotPool(MEDIUM, zone, MEDIUM, market, bid=0.07)


class TestStabilityClock:
    """4P-ST historically weighed *all* revocations since t=0 when
    built outside the controller (no clock attached)."""

    def test_windowed_vs_all_time_divergence(self, env, zone):
        pool = medium_pool(env, zone)
        # Twenty revocations, all ancient history (first simulated day).
        for i in range(20):
            pool.record_revocation(float(i), 1, 5)

        unclocked = StabilityWeightedPolicy()
        clocked = StabilityWeightedPolicy()
        clocked.attach_clock(lambda: 30 * DAY)

        # The bug: an unclocked weigh still counts all twenty events.
        assert unclocked.weight(pool) == pytest.approx(1.0 / 21.0)
        # The 7-day window has long forgotten them.
        assert clocked.weight(pool) == pytest.approx(1.0)

    def test_unclocked_weigh_fires_hook_once(self, env, zone):
        pool = medium_pool(env, zone)
        fired = []
        policy = StabilityWeightedPolicy()
        policy.on_unclocked = lambda: fired.append(True)
        policy.weight(pool)
        policy.weight(pool)
        assert fired == [True]

    def test_clocked_weigh_never_fires_hook(self, env, zone):
        pool = medium_pool(env, zone)
        fired = []
        policy = StabilityWeightedPolicy()
        policy.on_unclocked = lambda: fired.append(True)
        policy.attach_clock(lambda: 100.0)
        policy.weight(pool)
        assert fired == []

    def test_factory_attaches_clock(self, env, zone):
        pool = medium_pool(env, zone)
        for i in range(20):
            pool.record_revocation(float(i), 1, 5)
        policy = make_allocation_policy("4P-ST", now=lambda: 30 * DAY)
        assert policy.weight(pool) == pytest.approx(1.0)

    def test_controller_builds_clocked_and_hooked_policy(self, env, region):
        controller = SpotCheckController.deploy(
            env, region, TraceArchive(),
            SpotCheckConfig(allocation_policy="4P-ST"))
        assert controller.allocation._now() == env.now
        assert controller.allocation.on_unclocked is not None

    def test_unclocked_weigh_is_observable(self, region, zone):
        obs = Observability()
        env = Environment(seed=1234, obs=obs)
        controller = SpotCheckController.deploy(
            env, region, TraceArchive(),
            SpotCheckConfig(allocation_policy="4P-ST"))
        policy = controller.allocation
        # Graft the policy into an unclocked state (an externally built
        # policy would arrive like this) and weigh.
        policy._now = lambda: None
        policy.weight(medium_pool(env, zone))
        names = [event.name for event in obs.events]
        assert "policy.unclocked" in names


class TestKneeFloor:
    """``make_bid_policy`` never plumbed ``floor_fraction`` through to
    KneeBidPolicy, so the thrash floor was stuck at its default."""

    def test_floor_fraction_reaches_policy(self):
        policy = make_bid_policy("knee", floor_fraction=0.6)
        assert policy.floor_fraction == pytest.approx(0.6)

    def test_knee_below_floor_is_clamped(self):
        # A market trading at 10% of on-demand puts the availability
        # knee near ratio 0.1 — under the default 0.3 floor.
        trace = flat_trace(0.1 * MEDIUM.on_demand_price)
        clamped = make_bid_policy("knee", floor_fraction=0.3)
        assert clamped.bid_for(MEDIUM, trace) == \
            pytest.approx(0.3 * MEDIUM.on_demand_price)
        # With the floor below the knee, the knee itself wins.
        loose = make_bid_policy("knee", floor_fraction=0.05)
        assert loose.bid_for(MEDIUM, trace) < 0.3 * MEDIUM.on_demand_price
        assert loose.bid_for(MEDIUM, trace) >= \
            0.05 * MEDIUM.on_demand_price

    def test_config_plumbs_floor_to_controller(self, env, region):
        controller = SpotCheckController.deploy(
            env, region, TraceArchive(),
            SpotCheckConfig(bid_policy="knee", knee_floor_fraction=0.8))
        assert controller.bid_policy.floor_fraction == pytest.approx(0.8)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_config_validates_floor(self, bad):
        with pytest.raises(ValueError):
            SpotCheckConfig(knee_floor_fraction=bad)


class TestPriceSeriesFreshness:
    """4P-COST's mean once froze on stale hand-recorded samples; the
    market window is now its only series."""

    def test_fresher_market_series_wins(self, env, zone):
        # Ten points at 0.01, then one at 0.05: the mean follows every
        # delivered point of the market window, not the current price.
        trace = step_trace([(i * 100.0, 0.01) for i in range(10)]
                           + [(1000.0, 0.05)])
        pool = SpotPool(MEDIUM, zone, MEDIUM,
                        SpotMarket(env, MEDIUM, zone, trace), bid=0.07)
        env.run(until=500.0)
        assert pool.recent_mean_price_per_slot() == pytest.approx(0.01)
        env.run(until=2000.0)
        assert pool.price_per_slot() == 0.05
        assert pool.recent_mean_price_per_slot() == \
            pytest.approx(0.15 / 11)


class TestPredictorSeries:
    """``observe_series`` must be bit-equivalent to per-point
    ``observe``, including a signal holdoff spanning the series split."""

    BID = 0.07

    def _series(self):
        times = [i * 600.0 for i in range(40)]
        prices = []
        for i in range(40):
            if i in (6, 8, 25):  # Spikes: momentum + level signals.
                prices.append(0.06)
            else:
                prices.append(0.01)
        return times, prices

    def test_split_series_equivalent_to_per_point(self):
        times, prices = self._series()
        serial = RevocationPredictor()
        fired_serial = [i for i, (t, p) in enumerate(zip(times, prices))
                        if serial.observe("pool", t, p, self.BID)]

        batch = RevocationPredictor()
        # Split right after the first spike: the i=8 spike sits inside
        # the holdoff of the i=6 signal and must stay suppressed
        # across the chunk boundary.
        split = 7
        fired_batch = batch.observe_series(
            "pool", times[:split], prices[:split], self.BID)
        fired_batch += [split + i for i in batch.observe_series(
            "pool", times[split:], prices[split:], self.BID)]

        assert fired_serial == fired_batch
        assert batch.stats.signals == serial.stats.signals
        # Identical internal state: the next point decides identically.
        assert batch.observe("pool", 40 * 600.0, 0.06, self.BID) == \
            serial.observe("pool", 40 * 600.0, 0.06, self.BID)

    def test_holdoff_suppresses_second_spike(self):
        times, prices = self._series()
        predictor = RevocationPredictor(holdoff_s=3600.0)
        fired = predictor.observe_series("pool", times, prices, self.BID)
        assert 6 in fired
        assert 8 not in fired  # 1200 s after the first signal.
        assert 25 in fired

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RevocationPredictor().observe_series("pool", [0.0], [], self.BID)


class TestPredictionStatsEdges:
    def test_precision_with_no_judged_signals(self):
        assert PredictionStats().precision == 0.0

    def test_recall_with_no_actual_crossings(self):
        assert PredictionStats().recall == 0.0

    def test_all_false_positives(self):
        stats = PredictionStats(signals=3, false_positives=3)
        assert stats.precision == 0.0
        assert stats.recall == 0.0

    def test_all_missed(self):
        stats = PredictionStats(missed=2)
        assert stats.recall == 0.0

    def test_mixed_outcomes(self):
        stats = PredictionStats(signals=4, true_positives=3,
                                false_positives=1, missed=1)
        assert stats.precision == pytest.approx(0.75)
        assert stats.recall == pytest.approx(0.75)

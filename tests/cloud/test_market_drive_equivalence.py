"""Equivalence of the event-skipping drive with the per-step drive.

The threshold-indexed market drive claims bit-identical observable
behaviour to the legacy point-by-point loop: same scenario summaries,
same lazily reconstructed price windows, same predictor state.  These
tests pin each of those claims directly, so an optimization that
subtly changes *values* (not just wall-clock) fails loudly.
"""

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.spot_market import PriceWatch, SpotMarket
from repro.core.policies.prediction import RevocationPredictor
from repro.core.pools import PRICE_SAMPLE_WINDOW, SpotPool
from repro.experiments.scenario import PolicySimulation, ScenarioConfig

from tests.conftest import step_trace

MEDIUM = M3_CATALOG.get("m3.medium")

SCENARIOS = [
    dict(policy="1P-M", mechanism="spotcheck-lazy"),
    dict(policy="4P-ED", mechanism="spotcheck-lazy", proactive=True,
         bid_policy="multiple"),
    dict(policy="4P-COST", mechanism="xen-live"),
]


def _run(config, archive, force_step, monkeypatch):
    if force_step:
        monkeypatch.setattr(SpotMarket, "_step_mode", lambda self: True)
    summary = PolicySimulation(config, archive=archive).run()
    monkeypatch.undo()
    return summary


class TestScenarioEquivalence:
    def test_skipping_drive_matches_per_step_summaries(self, monkeypatch):
        """Every scenario summary is equal — floats bitwise, not approx."""
        for kwargs in SCENARIOS:
            config = ScenarioConfig(seed=7, days=2.0, vms=4, **kwargs)
            archive = PolicySimulation.build_archive(
                config.seed, config.duration_s,
                market_params=config.market_params, zones=config.zones)
            stepped = _run(config, archive, True, monkeypatch)
            indexed = _run(config, archive, False, monkeypatch)
            assert stepped == indexed, kwargs

    def test_skipping_drive_delivers_fewer_points(self, monkeypatch):
        """The indexed drive wakes for, and delivers, under 1% of the
        trace points.  A drive that wakes per point again (forced step
        mode) delivers every point and fails the same bound."""
        config = ScenarioConfig(policy="1P-M", mechanism="spotcheck-lazy",
                                seed=7, days=2.0, vms=4)
        archive = PolicySimulation.build_archive(
            config.seed, config.duration_s,
            market_params=config.market_params)

        def drive_stats():
            _summary, controller = PolicySimulation(
                config, archive=archive).run(return_controller=True)
            return controller.api.marketplace.drive_stats()

        def lazy(stats):
            return max(stats["delivered"], stats["wakes"]) * 100 \
                <= stats["points"]

        indexed = drive_stats()
        monkeypatch.setattr(SpotMarket, "_step_mode", lambda self: True)
        stepped = drive_stats()
        assert indexed["points"] == stepped["points"] > 0
        assert lazy(indexed)
        assert stepped["delivered"] == stepped["points"]
        assert not lazy(stepped)


def hear_every_price(market):
    """Stepped oracle: an unbounded watch hears every trace point."""
    seen = []
    market.add_watch(PriceWatch(lambda m, price: seen.append(price)))
    return seen


def stepped_mean_per_slot(seen, pool):
    """The per-step mean the lazy window must reproduce bit for bit."""
    window = seen[-PRICE_SAMPLE_WINDOW:]
    return (sum(window) / len(window)) / pool.slots_per_host


class TestPriceWindowEquivalence:
    def _market(self, env, zone, steps):
        trace = step_trace(steps)
        return SpotMarket(env, MEDIUM, zone, trace)

    def test_lazy_window_matches_per_step_recording(self, env, zone):
        steps = [(float(i * 60), 0.02 + 0.0001 * ((i * 7) % 13))
                 for i in range(600)]
        market = self._market(env, zone, steps)
        lazy = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        seen = hear_every_price(market)
        env.run(until=550 * 60.0 + 1)
        assert len(seen) == 551 > PRICE_SAMPLE_WINDOW
        # Bitwise equality: same values, same order, same float fold.
        assert lazy.recent_mean_price_per_slot() == \
            stepped_mean_per_slot(seen, lazy)

    def test_late_attach_sees_only_subsequent_points(self, env, zone):
        steps = [(float(i * 60), 0.01 + 0.001 * (i % 9)) for i in range(200)]
        market = self._market(env, zone, steps)
        # Attach strictly between two points: at an exact point time the
        # same-timestamp delivery order is heap-dependent either way.
        env.run(until=100 * 60.0 + 30.0)
        lazy = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        seen = hear_every_price(market)
        env.run()
        assert len(seen) == 99
        assert lazy.recent_mean_price_per_slot() == \
            stepped_mean_per_slot(seen, lazy)

    def test_empty_window_falls_back_to_current_price(self, env, zone):
        market = self._market(env, zone, [(0, 0.02)])
        pool = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        assert pool.recent_mean_price_per_slot() == pool.price_per_slot()


class TestPredictorSeriesEquivalence:
    PRICES = [0.010, 0.012, 0.030, 0.055, 0.020, 0.015, 0.080, 0.050,
              0.049, 0.011, 0.010, 0.058, 0.059, 0.012]

    def _series(self):
        times = [float(i * 900) for i in range(len(self.PRICES))]
        return times, list(self.PRICES)

    def test_observe_series_matches_per_point_observe(self):
        times, prices = self._series()
        bid = MEDIUM.on_demand_price
        loop = RevocationPredictor(holdoff_s=1800.0)
        batch = RevocationPredictor(holdoff_s=1800.0)
        fired_loop = [i for i, (when, price) in enumerate(zip(times, prices))
                      if loop.observe("pool", when, price, bid)]
        fired_batch = batch.observe_series("pool", times, prices, bid)
        assert fired_loop == fired_batch
        assert fired_loop  # The series is built to fire at least once.
        assert loop._ewma == batch._ewma
        assert loop._last_signal == batch._last_signal
        assert loop.stats.signals == batch.stats.signals

    def test_observe_series_resumes_existing_state(self):
        times, prices = self._series()
        bid = MEDIUM.on_demand_price
        loop = RevocationPredictor()
        batch = RevocationPredictor()
        split = 5
        for i in range(split):
            loop.observe("pool", times[i], prices[i], bid)
            batch.observe("pool", times[i], prices[i], bid)
        fired_loop = [i for i in range(split, len(times))
                      if loop.observe("pool", times[i], prices[i], bid)]
        fired_batch = [split + j for j in batch.observe_series(
            "pool", times[split:], prices[split:], bid)]
        assert fired_loop == fired_batch
        assert loop._ewma == batch._ewma

    def test_observe_series_rejects_ragged_input(self):
        predictor = RevocationPredictor()
        try:
            predictor.observe_series("pool", [0.0, 1.0], [0.01], 0.1)
        except ValueError:
            pass
        else:
            raise AssertionError("ragged series accepted")

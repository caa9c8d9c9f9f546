"""Condition-driven hot-spare replenishment: no polling at target."""

from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive

DAY = 24 * 3600.0


def build(hot_spares=2, on_demand_capacity=None):
    env = Environment(seed=42)
    region = default_region(1)
    archive = TraceArchive()
    archive.add(PriceTrace([0.0, 10 * DAY], [0.014, 0.014],
                           "m3.medium", region.zones[0].name, 0.07))
    controller = SpotCheckController.deploy(
        env, region, archive,
        SpotCheckConfig(hot_spares=hot_spares, return_to_spot=False))
    controller.api.on_demand_capacity = on_demand_capacity
    return env, controller.api, controller


class TestConditionDrivenSpares:
    def test_zero_events_while_at_target(self):
        env, api, controller = build()
        env.run(until=600.0)
        assert controller.spares.available == 2
        settled = env.events_processed
        env.run(until=5 * DAY)
        # A calm market, a full spare pool: the replenisher sleeps on
        # a bare event, so days of simulated time cost zero wakeups
        # (the old 60 s poll burned ~7200 events here).
        assert env.events_processed == settled
        stats = controller.spares_drive_stats()
        assert stats["wakes"] == 0
        assert stats["polls"] == 0
        assert stats["provisioned"] == 2

    def test_deficit_edge_wakes_replenisher(self):
        env, api, controller = build()
        env.run(until=600.0)
        taken = controller.spares.take_spare()
        assert taken is not None
        # No 60 s poll latency: the deficit edge fires the wakeup, so
        # the replacement arrives after just the launch latency.
        env.run(until=700.0)
        assert controller.spares.available == 2
        stats = controller.spares_drive_stats()
        assert stats["wakes"] == 1
        assert stats["polls"] == 0
        assert stats["provisioned"] == 3

    def test_capacity_refusal_falls_back_to_backoff(self):
        env, api, controller = build(hot_spares=2, on_demand_capacity=1)
        env.run(until=600.0)
        # Only one spare could launch; the refusal path polls with the
        # 60 s backoff instead of spinning on the deficit.
        assert controller.spares.available == 1
        stats = controller.spares_drive_stats()
        assert stats["polls"] > 0

    def test_finalize_cancels_pending_wakeup(self):
        env, api, controller = build()
        env.run(until=600.0)
        assert controller._spares_wakeup is not None
        controller.finalize()
        env.run(until=601.0)
        # The replenisher saw the finalize kick and exited: no parked
        # wakeup, and no trailing 60 s timeout left in the heap.
        assert controller._spares_wakeup is None
        settled = env.events_processed
        env.run(until=DAY)
        assert env.events_processed == settled

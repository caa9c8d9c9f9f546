"""Fleet-scale gates: on a calm market, fleet size buys (almost) nothing.

Every cell runs through the shard subsystem's own market builder
(:class:`MarketSimulation`, the stack :class:`ShardedCell` runs per
market): one calm m3.2xlarge market far under its bid, every VM
steady-flushing through one consolidated backup server, 2 simulated
days.  The group checkpoint scheduler wakes once per cohort round, the
spare replenisher sleeps at target, and the pool index answers
placement without scanning VMs.  A surviving per-VM loop multiplies
kernel events by the fleet-size ratio (1000x here), or, if it costs no
events, the steady-state wall clock; every bound below has an order of
magnitude of headroom over the measured ratio.
"""

import time

import pytest

from repro.core.shard import MarketSpec, ShardConfig, ShardedCell
from repro.core.shard.market import MarketSimulation
from repro.core.shard.messages import ProvisionRequest
from repro.workloads import default_fleet_mix

DAYS = 2.0
SMALL_VMS = 10
LARGE_VMS = 10_000
CLASSES = 8


def drive(n_vms, mix=None, days=DAYS):
    """Run one calm single-market cell; returns (report, steady wall).

    The wall clock starts after boot: provisioning N VMs is honestly
    O(N) in object construction, while the scaling law guarded here is
    what the fleet costs once it is up.  It is floored at 50 ms so a
    tiny cell cannot inflate a ratio.
    """
    config = ShardConfig(days=days, workload_mix=mix)
    market = MarketSimulation(MarketSpec(), config, 0, n_vms)
    market.apply(ProvisionRequest(market=0, count=n_vms))
    started = time.perf_counter()
    market.run_until(config.duration_s)
    report = market.finalize()
    assert report.vms == n_vms
    return report, max(time.perf_counter() - started, 0.05)


def per_vm_hour(report):
    return report.events_processed / (report.vms * DAYS * 24.0)


@pytest.fixture(scope="module")
def cells():
    return {"small": drive(SMALL_VMS), "large": drive(LARGE_VMS),
            "mixed": drive(LARGE_VMS, default_fleet_mix(classes=CLASSES))}


@pytest.fixture(scope="module")
def shard_runs():
    """The determinism contract at fleet scale: 10k VMs over four calm
    markets, homogeneous and mixed, run in one process and in two
    forked shard workers."""
    markets = [MarketSpec(zone_name=f"us-east-1{zone}") for zone in "abcd"]
    runs = {}
    for name, classes in (("homogeneous", None), ("mixed", CLASSES)):
        mix = default_fleet_mix(classes=classes) if classes else None
        config = ShardConfig(days=DAYS, workload_mix=mix)
        runs[name] = [
            ShardedCell(total_vms=LARGE_VMS, markets=markets,
                        config=config).run(shards=shards)
            for shards in (1, 2)]
    return runs


def events(report):
    return report.summary["events_processed"]


class TestFleetScaling:
    def test_events_flat_in_fleet_size(self, cells):
        """The whole homogeneous fleet forms one cohort; both cells arm
        the same rounds, so event totals stay nearly flat."""
        (small, _), (large, _) = cells["small"], cells["large"]
        assert small.flush["cohorts_created"] == 1
        assert large.flush["cohorts_created"] == 1
        assert large.flush["members"] == LARGE_VMS
        assert large.flush["flows_issued"] == small.flush["flows_issued"]
        assert large.events_processed < 2 * small.events_processed

    def test_fleet_event_ratio_ceiling(self, cells):
        (small, _), (large, _) = cells["small"], cells["large"]
        assert large.events_processed <= 20 * small.events_processed

    def test_events_per_vm_hour_amortize(self, cells):
        (small, _), (large, _) = cells["small"], cells["large"]
        assert per_vm_hour(large) < per_vm_hour(small)

    def test_steady_wall_flat_in_fleet_size(self, cells):
        (_, small_wall), (_, large_wall) = cells["small"], cells["large"]
        assert large_wall <= 10 * small_wall

    def test_spares_never_poll_on_calm_market(self, cells):
        for name, (report, _) in cells.items():
            assert report.spares["wakes"] == 0, name
            assert report.spares["polls"] == 0, name


class TestFleetMix:
    def test_mix_forms_a_cohort_per_class(self, cells):
        mixed, _ = cells["mixed"]
        assert mixed.flush["cohorts_created"] >= CLASSES

    def test_mix_events_within_2x_homogeneous(self, cells):
        """Eight plans cost their summed round rate (~1.6x), not the
        eight wakeup streams a per-plan loop would."""
        (large, _), (mixed, _) = cells["large"], cells["mixed"]
        assert mixed.events_processed <= 2 * large.events_processed

    def test_mix_steady_wall_within_4x_homogeneous(self, cells):
        (_, large_wall), (_, mixed_wall) = cells["large"], cells["mixed"]
        assert mixed_wall <= 4 * large_wall

    def test_mix_holds_the_ratchet(self, cells, shard_runs):
        """One cohort per class, the summed round rate well under the
        per-plan cost, and the mix replays bit-identically sharded."""
        (large, _), (mixed, _) = cells["large"], cells["mixed"]
        assert mixed.flush["cohorts_created"] == CLASSES
        assert mixed.events_processed < 2 * large.events_processed
        single, sharded = shard_runs["mixed"]
        assert sharded.digest() == single.digest()
        assert events(sharded) == events(single)

    def test_single_class_mix_reproduces_homogeneous_cell(self):
        homogeneous, _ = drive(40, days=0.25)
        mixed, _ = drive(40, default_fleet_mix(classes=1), days=0.25)
        assert mixed.events_processed == homogeneous.events_processed
        assert mixed.flush == homogeneous.flush
        assert mixed.flush["cohorts_created"] == 1


class TestShardedFleet:
    def test_sharded_cell_is_bit_identical(self, shard_runs):
        single, sharded = shard_runs["homogeneous"]
        assert single.shards == 1
        assert sharded.shards == 2
        assert len(single.digest()) == 64
        assert sharded.digest() == single.digest()
        assert events(sharded) == events(single)

    def test_shard_digests_match(self, shard_runs):
        single, sharded = shard_runs["homogeneous"]
        assert sharded.digest() == single.digest()

    def test_shard_event_totals_match(self, shard_runs):
        single, sharded = shard_runs["homogeneous"]
        assert events(sharded) == events(single)

    def test_mix_digests_match(self, shard_runs):
        single, sharded = shard_runs["mixed"]
        assert sharded.shards == 2
        assert sharded.digest() == single.digest()

    def test_mix_event_totals_match(self, shard_runs):
        single, sharded = shard_runs["mixed"]
        assert events(sharded) == events(single)

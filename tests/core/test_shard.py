"""Shard subsystem tests: mailbox ordering, apportionment, and the
bit-identity contract — a sharded fleet cell must replay the exact
single-process run at every shard count, calm or stormy, with or
without a chaos plan, including multi-epoch park/migrate rebalancing.
"""

from dataclasses import replace

import pytest

from repro.core.shard import (
    MarketSimulation,
    MarketSpec,
    ShardConfig,
    ShardedCell,
    ShardWorkerError,
    apportion,
)
from repro.core.shard.mailbox import Mailbox, Outbox, merge_messages
from repro.core.shard.messages import (
    MigrateAck,
    MigrateRequest,
    ParkRequest,
    PriceCrossing,
    ProvisionRequest,
    SlaSegment,
    Stamp,
)
from repro.experiments.chaos import default_chaos_plan
from repro.faults import BackupCrash
from repro.traces.model import MarketParams

DAY = 24 * 3600.0

#: Spot-price dynamics spiky enough that a 1-day, 8-VM cell sees
#: revocation storms, price crossings, and restore migrations — the
#: full message taxonomy — in a few seconds of wall clock.  The
#: on-demand price must match the m3.medium catalog entry (0.07):
#: the pool bids the catalog price, and a higher trace ceiling would
#: reject the bid at boot.
SPIKY_PARAMS = MarketParams(
    on_demand_price=0.07,
    base_ratio_mean=0.25,
    spike_rate_per_hour=0.3,
    spike_duration_mean_s=1800.0,
    change_interval_s=600.0,
)


def spiky_markets(zones="ab"):
    return [MarketSpec(type_name="m3.medium", zone_name=f"us-east-1{z}",
                       market_params=SPIKY_PARAMS) for z in zones]


def calm_markets(zones="abcd"):
    return [MarketSpec(type_name="m3.2xlarge", zone_name=f"us-east-1{z}")
            for z in zones]


def crossing(time, market, seq, key="m"):
    return PriceCrossing(stamp=Stamp(time, market, seq),
                         market_key=key, price=0.1, band="above")


class TestOutbox:
    def test_stamps_are_monotone_per_market(self):
        outbox = Outbox(3)
        first = outbox.stamp(5.0)
        second = outbox.stamp(5.0)
        third = outbox.stamp(9.0)
        assert first == Stamp(5.0, 3, 0)
        assert second == Stamp(5.0, 3, 1)
        assert third == Stamp(9.0, 3, 2)
        assert first < second < third

    def test_time_must_not_regress(self):
        outbox = Outbox(0)
        outbox.stamp(10.0)
        with pytest.raises(AssertionError):
            outbox.stamp(9.0)

    def test_drain_empties_the_outbox(self):
        outbox = Outbox(0)
        outbox.put(crossing(1.0, 0, 0))
        assert len(outbox) == 1
        assert [m.stamp.time for m in outbox.drain()] == [1.0]
        assert len(outbox) == 0
        assert outbox.drain() == []


class TestMerge:
    def test_merge_is_partition_independent(self):
        a = [crossing(1.0, 0, 0), crossing(3.0, 0, 1)]
        b = [crossing(1.0, 1, 0), crossing(2.0, 1, 1)]
        merged = merge_messages([a, b])
        assert merged == merge_messages([b, a])
        assert merged == merge_messages([a + b])
        assert [m.stamp for m in merged] == sorted(m.stamp for m in merged)

    def test_equal_times_break_ties_by_market_index(self):
        late_market = crossing(4.0, 7, 0)
        early_market = crossing(4.0, 2, 0)
        merged = merge_messages([[late_market], [early_market]])
        assert merged == [early_market, late_market]

    def test_mailbox_accumulates_batches_in_order(self):
        mailbox = Mailbox()
        first = mailbox.deliver([[crossing(1.0, 0, 0)]])
        second = mailbox.deliver([[crossing(2.0, 1, 0)],
                                  [crossing(2.0, 0, 1)]])
        assert len(first) == 1 and len(second) == 2
        assert [m.stamp.market for m in mailbox.messages] == [0, 0, 1]


class TestApportion:
    def test_even_split(self):
        assert apportion(100, [1.0, 1.0, 1.0, 1.0]) == [25, 25, 25, 25]

    def test_largest_remainder_gets_the_leftovers(self):
        assert apportion(10, [1.0, 1.0, 1.0]) == [4, 3, 3]
        assert apportion(7, [0.5, 0.25, 0.25]) == [3, 2, 2]

    def test_counts_sum_to_total(self):
        counts = apportion(101, [0.3, 0.21, 0.17, 0.32])
        assert sum(counts) == 101
        assert all(count >= 0 for count in counts)

    def test_invalid_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])
        with pytest.raises(ValueError):
            apportion(5, [])
        with pytest.raises(ValueError):
            apportion(5, [0.0, 0.0])
        with pytest.raises(ValueError):
            apportion(5, [1.0, -1.0])


def run_digests(total_vms, markets, config, shard_counts, **kwargs):
    results = []
    for shards in shard_counts:
        cell = ShardedCell(total_vms=total_vms, markets=markets,
                           config=config)
        results.append(cell.run(shards=shards, **kwargs))
    return results


class TestBitIdentity:
    def test_calm_bench_cell_is_identical_at_1_2_4_shards(self):
        """The PR 5 fleet-bench scenario, shrunk: calm m3.2xlarge
        markets, steady flush on — digests match at every width."""
        results = run_digests(24, calm_markets("abcd"),
                              ShardConfig(seed=11, days=1.0), (1, 2, 4))
        digests = {r.digest() for r in results}
        assert len(digests) == 1
        assert results[0].shards == 1 and results[-1].shards == 4
        summary = results[0].summary
        assert summary["markets"] == 4
        assert summary["vm_hours"] == pytest.approx(24 * 24.0, rel=0.02)
        assert summary["revocation_events"] == 0

    def test_stormy_cell_is_identical_and_exercises_the_taxonomy(self):
        """Spiky markets: warnings, storms, crossings, and SLA segments
        must all merge identically across process boundaries."""
        results = run_digests(8, spiky_markets("ab"),
                              ShardConfig(seed=5, days=1.0), (1, 2))
        assert results[0].digest() == results[1].digest()
        kinds = {type(m).__name__ for m in results[0].messages}
        assert {"RevocationWarning", "StormReport", "PriceCrossing",
                "SlaSegment"} <= kinds
        assert results[0].summary["revocation_events"] > 0
        assert results[0].summary["migrations"] > 0

    def test_price_crossings_alternate_per_market(self):
        """A crossing tap reports edges only: a point the drive wakes
        for on another listener's behalf (a bid crossing, the
        controller's watches) does not repeat the last band."""
        [result] = run_digests(8, spiky_markets("ab"),
                               ShardConfig(seed=5, days=1.0), (1,))
        bands = {}
        for message in result.messages:
            if type(message).__name__ == "PriceCrossing":
                bands.setdefault(message.market_key, []).append(
                    message.band)
        assert bands
        for market_bands in bands.values():
            assert all(a != b for a, b in
                       zip(market_bands, market_bands[1:])), market_bands

    def test_chaos_plan_run_is_identical_across_shards(self):
        # The backup crash moved inside the day: one under steady flush.
        plan = replace(default_chaos_plan(),
                       backup_crashes=(BackupCrash(at_s=12 * 3600.0),))
        config = ShardConfig(seed=3, days=1.0, faults=plan)
        results = run_digests(8, spiky_markets("ab"), config, (1, 2))
        assert results[0].digest() == results[1].digest()
        assert results[0].summary["migrations"] > 0
        assert results[0].summary["backup_servers"] >= 4

    def test_chaos_cell_with_backup_crash_completes(self):
        """The chaos plan's day-10 backup crash under steady flush: the
        victims re-enroll their flush on the new server (a member left
        in the dead server's cohort raises BackupUnavailable on its
        next round).  Cross-shard identity under a crash is the 1-day
        test above's."""
        config = ShardConfig(seed=3, days=11.0,
                             faults=default_chaos_plan())
        [result] = run_digests(8, [MarketSpec(zone_name="us-east-1a")],
                               config, (1,))
        [report] = result.reports
        assert report.summary["backup_servers"] == 2

    def test_message_stream_is_stamp_sorted(self):
        results = run_digests(8, spiky_markets("ab"),
                              ShardConfig(seed=5, days=1.0), (2,))
        stamps = [m.stamp for m in results[0].messages]
        assert stamps == sorted(stamps)


class TestFinalize:
    def test_report_matches_the_per_metric_methods(self):
        """The one-pass finalize is bit-identical to the ledger's
        per-metric methods."""
        sim = MarketSimulation(spiky_markets("a")[0], ShardConfig(
            seed=5, days=1.0, steady_checkpoint_flush=False), 0, 8)
        sim.apply(ProvisionRequest(market=0, count=8))
        sim.run_until(DAY)
        summary = sim.finalize().summary
        ledger, api = sim.controller.ledger, sim.controller.api
        assert ledger.revocations and ledger.migrations
        assert [summary[key] for key in (
            "vm_seconds", "downtime_s", "degraded_s", "total_cost",
            "cost_breakdown")] == [
            ledger.total_vm_seconds(), ledger.total_downtime_s(),
            ledger.total_degraded_s(), ledger.total_cost(api),
            ledger.cost_breakdown(api)]
        [segment] = [m for m in sim.outbox.drain()
                     if isinstance(m, SlaSegment)]
        assert (segment.vm_hours, segment.availability,
                segment.unavailability_pct, segment.degradation_pct) == (
            ledger.total_vm_seconds() / 3600.0, ledger.availability(),
            100.0 * ledger.unavailability(), 100.0 * ledger.degradation())


class TestEpochsAndRebalance:
    def test_park_and_migrate_round_trip(self):
        """A coordinator rebalance that parks in one market and
        migrates out of another lands identically at 1 and 2 shards."""

        def rebalance(epoch, batch, cell):
            assert epoch == 0
            return [ParkRequest(market=0, count=2),
                    MigrateRequest(market=1, count=2, dest_market=0)]

        results = run_digests(
            12, calm_markets("ab"), ShardConfig(seed=7, days=1.0),
            (1, 2), epochs=2, rebalance=rebalance)
        assert results[0].digest() == results[1].digest()
        for result in results:
            acks = [m for m in result.messages
                    if isinstance(m, MigrateAck)]
            assert [ack.released for ack in acks] == [2]
            assert acks[0].dest_market == 0
            by_market = {r.market: r for r in result.reports}
            assert by_market[0].parked == 2
            # 6 booted + 2 migrated in; the source keeps its stubs
            # on the customer roster but released the running VMs.
            assert by_market[0].vms == 8

    def test_rebalance_not_called_after_last_epoch(self):
        calls = []

        def rebalance(epoch, batch, cell):
            calls.append(epoch)
            return []

        run_digests(4, calm_markets("ab"),
                    ShardConfig(seed=7, days=0.25), (1,),
                    epochs=3, rebalance=rebalance)
        assert calls == [0, 1]


class TestValidationAndErrors:
    def test_duplicate_markets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardedCell(total_vms=4,
                        markets=calm_markets("aa"),
                        config=ShardConfig(days=0.25))

    def test_weights_must_match_markets(self):
        with pytest.raises(ValueError, match="one weight per market"):
            ShardedCell(total_vms=4, markets=calm_markets("ab"),
                        config=ShardConfig(days=0.25), weights=[1.0])

    def test_shards_clamped_to_market_count(self):
        cell = ShardedCell(total_vms=4, markets=calm_markets("ab"),
                           config=ShardConfig(seed=7, days=0.25))
        result = cell.run(shards=16)
        assert result.shards == 2

    def test_worker_failure_surfaces_the_traceback(self):
        bad = [MarketSpec(type_name="m3.medium", zone_name="us-east-1a"),
               MarketSpec(type_name="no.such.type",
                          zone_name="us-east-1b")]
        cell = ShardedCell(total_vms=4, markets=bad,
                           config=ShardConfig(days=0.25))
        with pytest.raises(ShardWorkerError, match="no.such.type"):
            cell.run(shards=2)

    def test_unknown_market_request_is_rejected(self):
        cell = ShardedCell(total_vms=4, markets=calm_markets("ab"),
                           config=ShardConfig(seed=7, days=0.25))
        with pytest.raises(KeyError, match="unknown market index"):
            cell.run(shards=1, epochs=2,
                     rebalance=lambda e, b, c: [ParkRequest(market=9,
                                                            count=1)])

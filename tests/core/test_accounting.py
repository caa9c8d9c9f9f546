"""Tests for the cost/availability/storm ledger."""

import pytest

from repro.cloud import billing
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Market
from repro.core.accounting import AccountingLedger
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.virt.vm import NestedVM

from tests.conftest import flat_trace, run_process
from tests.core.test_provision_fleet import build, provision

MEDIUM = M3_CATALOG.get("m3.medium")


def migration_kwargs(**overrides):
    defaults = dict(
        vm_id="nvm-1", cause="revocation", mechanism="bounded-lazy",
        downtime_s=23.0, degraded_s=50.0,
        source_pool=("spot", "m3.medium", "z"),
        dest_pool=("on-demand", "m3.medium", "z"),
        concurrent=1, state_safe=True)
    defaults.update(overrides)
    return defaults


class TestLifetimes:
    def test_vm_seconds_accumulate(self, env):
        ledger = AccountingLedger(env)
        vm = NestedVM(env, MEDIUM)
        ledger.vm_created(vm)
        env._now = 1000.0
        ledger.vm_terminated(vm)
        assert ledger.total_vm_seconds() == 1000.0

    def test_open_lifetimes_closed_at_finalize(self, env):
        ledger = AccountingLedger(env)
        ledger.vm_created(NestedVM(env, MEDIUM))
        env._now = 500.0
        ledger.finalize()
        assert ledger.total_vm_seconds() == 500.0


class TestAvailabilityMetrics:
    def test_unavailability_fraction(self, env):
        ledger = AccountingLedger(env)
        vm = NestedVM(env, MEDIUM)
        ledger.vm_created(vm)
        ledger.record_migration(**migration_kwargs(downtime_s=100.0))
        env._now = 10000.0
        ledger.finalize()
        assert ledger.unavailability() == pytest.approx(0.01)
        assert ledger.availability() == pytest.approx(0.99)

    def test_degradation_fraction(self, env):
        ledger = AccountingLedger(env)
        ledger.vm_created(NestedVM(env, MEDIUM))
        ledger.record_migration(**migration_kwargs(degraded_s=200.0))
        env._now = 10000.0
        ledger.finalize()
        assert ledger.degradation() == pytest.approx(0.02)

    def test_empty_ledger_fully_available(self, env):
        ledger = AccountingLedger(env)
        assert ledger.availability() == 1.0
        assert ledger.degradation() == 0.0

    def test_state_loss_events_tracked(self, env):
        ledger = AccountingLedger(env)
        ledger.record_migration(**migration_kwargs(state_safe=False))
        ledger.record_migration(**migration_kwargs())
        assert len(ledger.state_loss_events()) == 1

    def test_per_phase_sums_match_total_downtime(self, env):
        ledger = AccountingLedger(env)
        phases_a = {"final-commit": 0.6, "ebs-detach": 10.7,
                    "vpc-detach": 1.2, "dest-wait": 0.0,
                    "ebs-attach": 4.8, "vpc-attach": 1.0, "restore": 0.9}
        phases_b = {"stop-and-copy": 0.08}
        ledger.record_migration(**migration_kwargs(
            downtime_s=sum(phases_a.values()), phases=phases_a))
        ledger.record_migration(**migration_kwargs(
            vm_id="nvm-2", mechanism="live",
            downtime_s=sum(phases_b.values()), phases=phases_b))
        for record in ledger.migrations:
            assert sum(record.phases.values()) == \
                pytest.approx(record.downtime_s)
        totals = ledger.phase_totals()
        assert totals["ebs-detach"] == pytest.approx(10.7)
        assert totals["stop-and-copy"] == pytest.approx(0.08)
        assert sum(totals.values()) == \
            pytest.approx(ledger.total_downtime_s())

    def test_downtime_and_degraded_totals_aggregate(self, env):
        ledger = AccountingLedger(env)
        ledger.record_migration(**migration_kwargs(
            downtime_s=20.0, degraded_s=5.0))
        ledger.record_migration(**migration_kwargs(
            vm_id="nvm-2", downtime_s=26.0, degraded_s=7.0))
        assert ledger.total_downtime_s() == pytest.approx(46.0)
        assert ledger.total_degraded_s() == pytest.approx(12.0)

    def test_revocation_aggregation(self, env):
        ledger = AccountingLedger(env)
        ledger.record_revocation(
            pool_key=("spot", "m3.medium", "z"), hosts_lost=2,
            vms_displaced=7, backup_load={"bak-1": 4, "bak-2": 3})
        ledger.record_revocation(
            pool_key=("spot", "m3.large", "z"), hosts_lost=1,
            vms_displaced=2)
        assert len(ledger.revocations) == 2
        first = ledger.revocations[0]
        # The per-server concurrency spread sums to the displaced VMs.
        assert sum(first.backup_load.values()) == first.vms_displaced
        assert ledger.max_concurrent_revocation() == 7
        assert sum(e.vms_displaced for e in ledger.revocations) == 9

    def test_migration_count_by_cause(self, env):
        ledger = AccountingLedger(env)
        ledger.record_migration(**migration_kwargs(cause="revocation"))
        ledger.record_migration(**migration_kwargs(cause="return-to-spot"))
        assert ledger.migration_count() == 2
        assert ledger.migration_count("revocation") == 1


class TestCost:
    def test_total_cost_includes_extras_and_open_records(self, env, api,
                                                         zone):
        api.install_market(MEDIUM, zone, flat_trace(0.02))
        ledger = AccountingLedger(env)
        def flow():
            spot = yield api.run_instance(MEDIUM, zone, Market.SPOT, bid=0.07)
            od = yield api.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            yield env.timeout(3600.0)
            yield api.terminate_instance(od)
            return spot
        run_process(env, flow())
        ledger.add_cost("backup:test", 1.5)
        total = ledger.total_cost(api)
        # Closed od record ~0.07, open spot accrues ~0.02/hr, extra 1.5.
        assert total > 1.5 + 0.07
        breakdown = ledger.cost_breakdown(api)
        assert breakdown["backup"] == 1.5
        assert breakdown["on-demand"] == pytest.approx(0.07, rel=0.01)

    def test_cost_per_vm_hour(self, env, api):
        ledger = AccountingLedger(env)
        vm = NestedVM(env, MEDIUM)
        ledger.vm_created(vm)
        env._now = 7200.0
        ledger.finalize()
        ledger.add_cost("x", 0.10)
        assert ledger.cost_per_vm_hour(api) == pytest.approx(0.05)

    def test_zero_vm_hours(self, env, api):
        assert AccountingLedger(env).cost_per_vm_hour(api) == 0.0


class TestStorms:
    def test_histogram_buckets(self, env):
        ledger = AccountingLedger(env)
        env._now = 3600.0 * 100  # 100 hours of observation
        ledger._finalized_at = env.now
        ledger.revocations = []
        ledger.record_revocation(("spot", "m", "z"), 1, 40)   # all N
        ledger.record_revocation(("spot", "m", "z"), 1, 20)   # N/2
        ledger.record_revocation(("spot", "m", "z"), 1, 9)    # < N/4
        histogram = ledger.storm_histogram(total_vms=40)
        assert histogram[1.0] == pytest.approx(1 / 100)
        assert histogram[0.5] == pytest.approx(1 / 100)
        assert histogram[0.25] == 0.0

    def test_max_concurrent(self, env):
        ledger = AccountingLedger(env)
        assert ledger.max_concurrent_revocation() == 0
        ledger.record_revocation(("spot", "m", "z"), 2, 17)
        assert ledger.max_concurrent_revocation() == 17

    def test_histogram_validation(self, env):
        with pytest.raises(ValueError):
            AccountingLedger(env).storm_histogram(total_vms=0)

    def test_summary_keys(self, env, api):
        ledger = AccountingLedger(env)
        env._now = 3600.0
        summary = ledger.summary(api, total_vms=10)
        for key in ("cost_per_vm_hour", "availability", "unavailability_pct",
                    "degradation_pct", "migrations", "revocation_events",
                    "state_loss_events", "storm_histogram"):
            assert key in summary


def unmemoized_reductions(ledger, api):
    """The summary's cost and availability figures, one reduction per
    metric: every lifetime sum and every open accrual recomputed at
    each use, in the ledger's addition order."""

    def accrued(instance):
        if instance.is_spot:
            return api.billing.accrued_cost(instance, api.marketplace.market(
                instance.itype, instance.zone))
        return api.billing.accrued_cost(instance)

    total = api.billing.total_cost()
    for instance in api.instances.values():
        record = api.billing.records.get(instance.id)
        if record is not None and record.end is None:
            total += accrued(instance)
    total += sum(dollars for _label, dollars in ledger.extra_costs)
    totals = {Market.SPOT: 0.0, Market.ON_DEMAND: 0.0}
    for instance_id, record in api.billing.records.items():
        if record.end is not None:
            totals[record.market] += record.cost
        else:
            instance = api.instances[instance_id]
            source = Market.SPOT if instance.is_spot else Market.ON_DEMAND
            totals[source] += accrued(instance)
    vm_hours = ledger.total_vm_seconds() / 3600.0
    unavailability = (ledger.total_downtime_s() / ledger.total_vm_seconds()
                      if ledger.total_vm_seconds() else 0.0)
    degradation = (ledger.total_degraded_s() / ledger.total_vm_seconds()
                   if ledger.total_vm_seconds() else 0.0)
    return {
        "vm_hours": vm_hours,
        "cost_per_vm_hour": total / vm_hours if vm_hours else 0.0,
        "availability": 1.0 - unavailability,
        "unavailability_pct": 100.0 * unavailability,
        "degradation_pct": 100.0 * degradation,
        "cost_breakdown": {
            "spot": totals[Market.SPOT],
            "on-demand": totals[Market.ON_DEMAND],
            "backup": sum(dollars for _label, dollars in ledger.extra_costs)},
    }


def counted_summary(monkeypatch, controller):
    """``controller.summary()`` and the windows it integrated."""
    windows = []
    integrate = billing.integrate_trace

    def counting(times, prices, start, end):
        windows.append((id(times), start, end))
        return integrate(times, prices, start, end)

    monkeypatch.setattr(billing, "integrate_trace", counting)
    summary = controller.summary()
    monkeypatch.setattr(billing, "integrate_trace", integrate)
    return summary, windows


class TestSummaryOnePass:
    """``summary()`` sums the lifetimes once and accrues each open
    record once, yet every figure is bit-identical to the reductions
    done one metric at a time."""

    def check(self, monkeypatch, controller):
        summary, windows = counted_summary(monkeypatch, controller)
        expected = unmemoized_reductions(controller.ledger, controller.api)
        assert {key: summary[key] for key in expected} == expected
        assert len(windows) == len(set(windows))
        return windows

    def test_fleet_cell(self, monkeypatch):
        env, api, controller = build()
        provision(env, controller, 200)
        env.run(until=env.now + 6 * 3600.0)
        controller.finalize()
        windows = self.check(monkeypatch, controller)
        # 25 hosts booted together share one accrual window.
        assert len(windows) == 1

    def test_paper_grid_cell(self, monkeypatch):
        config = ScenarioConfig(policy="4P-COST", mechanism="spotcheck-lazy",
                                seed=1, days=14.0, vms=10)
        _, controller = PolicySimulation(config).run(return_controller=True)
        assert controller.api.billing.records
        self.check(monkeypatch, controller)

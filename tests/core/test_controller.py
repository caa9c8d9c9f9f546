"""End-to-end tests for the SpotCheck controller."""

import pytest

from repro.cloud.instances import InstanceState, Market
from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive
from repro.virt.vm import VMState
from repro.workloads import TpcwWorkload

DAY = 24 * 3600.0

#: Spike window used by most tests: prices jump far above on-demand at
#: t=50000 and recover at t=58000.
SPIKE_START = 50000.0
SPIKE_END = 58000.0


def spiky_trace(type_name, od_price, base_ratio=0.2, spike=10.0,
                duration=10 * DAY):
    times = [0.0, SPIKE_START, SPIKE_END, duration]
    base = od_price * base_ratio
    prices = [base, od_price * spike, base, base]
    return PriceTrace(times, prices, type_name, "us-east-1a", od_price)


def quiet_trace(type_name, od_price, base_ratio=0.2, duration=10 * DAY):
    return PriceTrace([0.0, duration], [od_price * base_ratio] * 2,
                      type_name, "us-east-1a", od_price)


def build(config=None, traces=None, on_demand_capacity=None):
    env = Environment(seed=99)
    archive = TraceArchive()
    trace_map = traces or {"m3.medium": spiky_trace("m3.medium", 0.07)}
    for type_name, trace in trace_map.items():
        archive.add(trace)
    controller = SpotCheckController.deploy(
        env, default_region(1), archive, config or SpotCheckConfig())
    controller.api.on_demand_capacity = on_demand_capacity
    return env, controller.api, controller


def launch_fleet(env, controller, count=2, workload_factory=TpcwWorkload):
    def flow():
        customer = controller.start_customer("test")
        vms = []
        for _ in range(count):
            vm = yield controller.request_server(
                customer, workload=workload_factory())
            vms.append(vm)
        return vms
    return env.run(until=env.process(flow()))


class TestRequestServer:
    def test_vm_lands_on_spot_with_backup(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        assert vm.state is VMState.RUNNING
        assert vm.host.instance.market is Market.SPOT
        assert vm.backup_assignment is not None
        assert vm.private_ip is not None
        assert vm.volume.attached_to is vm.host.instance
        assert vm.id in vm.backup_assignment.store._images

    def test_wrong_type_rejected(self):
        env, api, controller = build()
        customer = controller.start_customer("c")
        with pytest.raises(ValueError):
            env.run(until=controller.request_server(
                customer, type_name="m3.large"))

    def test_slicing_reserves_extra_slots(self):
        # 2P-ML maps the second VM to the m3.large pool: one large host
        # sliced into two medium slots; the third request reuses the
        # reserved slot without a new native instance.
        traces = {
            "m3.medium": quiet_trace("m3.medium", 0.07),
            "m3.large": quiet_trace("m3.large", 0.14),
        }
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML"), traces)
        vms = launch_fleet(env, controller, count=4)
        large_pool = controller.pools.spot_pool("m3.large", "us-east-1a")
        assert large_pool.vm_count == 2
        assert large_pool.host_count == 1  # sliced, not two instances
        assert large_pool.hosts[0].itype.name == "m3.large"

    def test_slicing_disabled_uses_one_slot_hosts(self):
        traces = {
            "m3.medium": quiet_trace("m3.medium", 0.07),
            "m3.large": quiet_trace("m3.large", 0.14),
        }
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML", slicing=False), traces)
        launch_fleet(env, controller, count=4)
        large_pool = controller.pools.spot_pool("m3.large", "us-east-1a")
        assert large_pool.host_count == 2

    def test_bid_too_low_parks_on_demand(self):
        trace = PriceTrace([0.0, 10 * DAY], [0.50, 0.50], "m3.medium",
                           "us-east-1a", 0.07)
        env, api, controller = build(traces={"m3.medium": trace})
        [vm] = launch_fleet(env, controller, count=1)
        assert vm.host.instance.market is Market.ON_DEMAND
        assert vm.id in controller._parked

    def test_vm_lifetime_recorded(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        assert vm.id in controller.ledger.lifetimes


class TestRevocation:
    def test_bounded_migration_to_on_demand(self):
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        [vm] = launch_fleet(env, controller, count=1)
        source_instance = vm.host.instance
        env.run(until=SPIKE_START + 400.0)
        assert source_instance.state is InstanceState.TERMINATED
        assert vm.state is not VMState.TERMINATED
        assert vm.host.instance.market is Market.ON_DEMAND
        assert vm.backup_assignment is None  # released on the od side
        [migration] = [m for m in controller.ledger.migrations
                       if m.cause == "revocation"]
        assert migration.mechanism == "bounded-lazy"
        # The ~23 s control-plane downtime window (plus commit+skeleton).
        assert 12.0 < migration.downtime_s < 40.0
        assert migration.state_safe

    def test_revocation_event_recorded_with_storm_size(self):
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        launch_fleet(env, controller, count=3)
        env.run(until=SPIKE_START + 400.0)
        assert len(controller.ledger.revocations) == 1
        event = controller.ledger.revocations[0]
        assert event.vms_displaced == 3
        assert sum(event.backup_load.values()) == 3

    def test_vm_runs_through_spike_window(self):
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=9 * DAY)
        assert vm.state is VMState.RUNNING
        assert controller.ledger.state_loss_events() == []

    def test_return_to_spot_after_holddown(self):
        env, api, controller = build(
            SpotCheckConfig(return_holddown_s=600.0))
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_END + 4000.0)
        assert vm.host.instance.market is Market.SPOT
        assert vm.backup_assignment is not None  # re-protected on spot
        causes = [m.cause for m in controller.ledger.migrations]
        assert "return-to-spot" in causes
        assert vm.id not in controller._parked

    def test_emptied_on_demand_host_terminated(self):
        env, api, controller = build(
            SpotCheckConfig(return_holddown_s=600.0))
        launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_END + 4000.0)
        od_pool = controller.pools.on_demand_pool("m3.medium", "us-east-1a")
        assert od_pool.host_count == 0

    def test_live_only_baseline_records_risk(self):
        env, api, controller = build(
            SpotCheckConfig(live_migration_only=True, return_to_spot=False))
        [vm] = launch_fleet(env, controller, count=1)
        assert vm.backup_assignment is None
        env.run(until=SPIKE_START + 400.0)
        [migration] = controller.ledger.migrations
        assert migration.mechanism == "live"
        # A TPC-W guest pre-copies in ~90 s < 120 s: state survives,
        # but only just — the paper calls this impractical.
        assert migration.downtime_s < 1.0

    def test_yank_mechanism_long_downtime(self):
        from repro.virt.migration.bounded import BoundedMigrationConfig
        env, api, controller = build(SpotCheckConfig(
            mechanism=BoundedMigrationConfig.yank_baseline(),
            return_to_spot=False))
        launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START + 600.0)
        [migration] = controller.ledger.migrations
        assert migration.mechanism == "bounded-full"
        # Ops (~23 s) plus the full unoptimized image read (~37 s); the
        # lone final commit bursts on the idle datapath, so it no
        # longer contributes the worst-case 30 s.
        assert migration.downtime_s > 50.0


class TestSparesAndStaging:
    def test_hot_spares_provisioned_and_consumed(self):
        env, api, controller = build(SpotCheckConfig(
            hot_spares=1, return_to_spot=False))
        launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START - 1.0)
        assert controller.spares.available == 1
        env.run(until=SPIKE_START + 400.0)
        assert controller.spares.consumed == 1
        env.run(until=SPIKE_START + 4000.0)
        assert controller.spares.available == 1  # replenished

    def test_staging_used_when_no_capacity(self):
        traces = {
            "m3.medium": spiky_trace("m3.medium", 0.07),
            "m3.large": quiet_trace("m3.large", 0.14),
        }
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML", use_staging=True,
                            return_to_spot=False),
            traces, on_demand_capacity=0)
        vms = launch_fleet(env, controller, count=2)
        env.run(until=SPIKE_START + 600.0)
        # The medium-pool VM was displaced into the large pool's spare
        # slot (the large host has 2 slots, one VM).
        medium_vm = [vm for vm in vms
                     if vm.host.instance.market is Market.SPOT
                     and vm.host.itype.name == "m3.large"]
        assert len(medium_vm) >= 1
        assert controller.spares.staged >= 1


class TestProactive:
    def test_proactive_drain_inside_band(self):
        # Bid 3x on-demand; the spike reaches ~1.43x — inside the band,
        # so no revocation occurs and the pool drains proactively.
        trace = spiky_trace("m3.medium", 0.07, spike=1.43)
        env, api, controller = build(SpotCheckConfig(
            bid_policy="multiple", bid_multiple=3.0,
            proactive_migration=True, return_to_spot=False),
            traces={"m3.medium": trace})
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START + 2000.0)
        assert controller.ledger.migration_count("proactive") == 1
        assert controller.ledger.migration_count("revocation") == 0
        assert vm.host.instance.market is Market.ON_DEMAND
        assert len(controller.ledger.revocations) == 0


class TestRelinquish:
    def test_relinquish_frees_everything(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        host_instance = vm.host.instance
        env.run(until=controller.relinquish(vm))
        assert vm.state is VMState.TERMINATED
        assert vm.backup_assignment is None
        assert host_instance.state is InstanceState.TERMINATED
        assert vm.id not in [v.id for v in controller.all_vms()]

    def test_relinquish_keeps_shared_host(self):
        traces = {"m3.medium": quiet_trace("m3.medium", 0.07),
                  "m3.large": quiet_trace("m3.large", 0.14)}
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML"), traces)
        vms = launch_fleet(env, controller, count=4)
        large_vms = [vm for vm in vms if vm.host.itype.name == "m3.large"]
        shared_host = large_vms[0].host
        env.run(until=controller.relinquish(large_vms[0]))
        assert shared_host.instance.is_running
        assert len(shared_host.vms) == 1


class TestFinalize:
    def test_backup_costs_added(self):
        env, api, controller = build()
        launch_fleet(env, controller, count=1)
        env.run(until=5 * DAY)
        controller.finalize()
        labels = [label for label, _cost in controller.ledger.extra_costs]
        assert any(label.startswith("backup:") for label in labels)

    def test_finalize_idempotent(self):
        env, api, controller = build()
        launch_fleet(env, controller, count=1)
        env.run(until=DAY)
        controller.finalize()
        count = len(controller.ledger.extra_costs)
        controller.finalize()
        assert len(controller.ledger.extra_costs) == count

    def test_summary_structure(self):
        env, api, controller = build()
        launch_fleet(env, controller, count=2)
        env.run(until=2 * DAY)
        controller.finalize()
        summary = controller.summary(total_vms=2)
        # A 2-VM fleet amortizes the $0.28 backup server poorly
        # ($0.14/VM-hr); the paper's $0.015 needs the 40-VM fleets the
        # benches use.  Here we only check the accounting adds up.
        breakdown = summary["cost_breakdown"]
        assert summary["cost_per_vm_hour"] > 0.0
        assert breakdown["backup"] > 0.0
        assert summary["availability"] > 0.99

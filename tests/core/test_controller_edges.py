"""Edge-case tests for controller internals."""

import pytest

from repro.cloud.instances import Market
from repro.core.config import SpotCheckConfig
from repro.virt.vm import VMState
from repro.workloads import TpcwWorkload

from tests.core.test_controller import (
    SPIKE_END,
    SPIKE_START,
    build,
    launch_fleet,
    quiet_trace,
    spiky_trace,
)

DAY = 24 * 3600.0


class TestRequestRaces:
    def test_request_during_active_warning_avoids_doomed_host(self):
        # A second request arrives while the only spot host is warned:
        # the new VM must not boot into the doomed host's free slot.
        traces = {"m3.medium": quiet_trace("m3.medium", 0.07),
                  "m3.large": spiky_trace("m3.large", 0.14)}
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML",
                            return_to_spot=False), traces=traces)
        vms = launch_fleet(env, controller, count=2)  # medium + large(2 slot)
        env.run(until=SPIKE_START + 10.0)  # large host warned
        late = launch_fleet(env, controller, count=2)  # medium + large again
        env.run(until=SPIKE_START + 2000.0)
        for vm in late:
            assert vm.state is VMState.RUNNING
        # The late large-pool VM could not use the warned host's free
        # slot; it was born parked (bid below spiked price).
        late_large = [vm for vm in late
                      if vm.host.itype.name != "m3.large"
                      or vm.host.instance.market is Market.ON_DEMAND]
        assert late_large

    def test_request_during_spike_parks_then_returns(self):
        env, api, controller = build(
            SpotCheckConfig(return_holddown_s=300.0))
        launch_fleet(env, controller, count=1)
        def mid_spike():
            yield env.timeout(SPIKE_START + 30.0 - env.now)
            customer = controller.start_customer("late")
            vm = yield controller.request_server(
                customer, workload=TpcwWorkload())
            return vm
        vm = env.run(until=env.process(mid_spike()))
        assert vm.host.instance.market is Market.ON_DEMAND
        env.run(until=SPIKE_END + 5000.0)
        assert vm.host.instance.market is Market.SPOT  # came home
        assert vm.backup_assignment is not None


class TestGcAndRelinquishEdges:
    def test_relinquish_parked_vm(self):
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START + 500.0)  # now parked on-demand
        assert vm.id in controller._parked
        env.run(until=controller.relinquish(vm))
        assert vm.id not in controller._parked
        assert vm.state is VMState.TERMINATED
        od_pool = controller.pools.on_demand_pool("m3.medium", "us-east-1a")
        assert od_pool.host_count == 0  # host GC'd

    def test_relinquish_last_vm_stops_spot_billing(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        instance = vm.host.instance
        relinquish_time = env.now + 3600.0
        env.run(until=relinquish_time)
        env.run(until=controller.relinquish(vm))
        record = api.billing.records[instance.id]
        assert record.end == pytest.approx(relinquish_time, abs=60.0)

    def test_spare_hosts_not_garbage_collected(self):
        env, api, controller = build(
            SpotCheckConfig(hot_spares=1, return_to_spot=False))
        launch_fleet(env, controller, count=1)
        env.run(until=2000.0)
        [spare] = controller.spares.spares
        controller._gc_host_if_empty(spare)
        assert spare.instance.is_running
        assert controller.spares.available == 1


class TestPriceChangeGuards:
    def test_no_return_without_parked_vms(self):
        env, api, controller = build()
        launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START - 100.0)
        # Price changes below od happen constantly; without parked VMs
        # no return process may spawn.
        assert controller._returning_pools == set()

    def test_return_flag_cleared_after_failed_return(self):
        # The dip ends before the holddown expires; the return aborts
        # and the pool must be eligible for the next dip.
        trace_steps = [0.0, SPIKE_START, SPIKE_START + 200.0,
                       SPIKE_START + 300.0, SPIKE_END, 10 * DAY]
        prices = [0.014, 0.7, 0.014, 0.7, 0.014, 0.014]
        from repro.traces.archive import PriceTrace
        trace = PriceTrace(trace_steps, prices, "m3.medium", "us-east-1a",
                           0.07)
        env, api, controller = build(
            SpotCheckConfig(return_holddown_s=600.0),
            traces={"m3.medium": trace})
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=9 * DAY)
        assert controller._returning_pools == set()
        assert vm.host.instance.market is Market.SPOT
        assert vm.state is VMState.RUNNING


class TestSlotAccounting:
    def test_no_reservation_leaks_after_six_spikes(self):
        env, api, controller = build()
        vms = launch_fleet(env, controller, count=2)
        env.run(until=9 * DAY)
        for pool in controller.pools.all_pools():
            for host in pool.hosts:
                # Any surviving reservation would leak a slot forever.
                assert host.hypervisor.reserved == 0
        total_placed = sum(len(host.vms)
                           for pool in controller.pools.all_pools()
                           for host in pool.hosts)
        assert total_placed == 2

"""Tests for multi-zone operation and the zone-spread policy."""

import pytest

from repro.cloud.instances import Market
from repro.cloud.zones import Region, default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive
from repro.virt.vm import VMState

from tests.core.test_controller import launch_fleet

DAY = 24 * 3600.0
SPIKE_START = 50000.0
SPIKE_END = 58000.0


def zone_trace(zone_name, spiky=False, od=0.07, duration=10 * DAY):
    if spiky:
        times = [0.0, SPIKE_START, SPIKE_END, duration]
        prices = [0.2 * od, 10 * od, 0.2 * od, 0.2 * od]
    else:
        times = [0.0, duration]
        prices = [0.2 * od, 0.2 * od]
    return PriceTrace(times, prices, "m3.medium", zone_name, od)


def build_multizone(config=None, zone_count=2, spiky_zone=0):
    env = Environment(seed=5)
    region = default_region(zone_count)
    archive = TraceArchive([zone_trace(zone.name, spiky=(index == spiky_zone))
                            for index, zone in enumerate(region.zones)])
    controller = SpotCheckController.deploy(
        env, region, archive,
        config or SpotCheckConfig(allocation_policy="Z-M"))
    return env, controller.api, controller, region


class TestInstallation:
    def test_pools_per_zone(self):
        env, api, controller, region = build_multizone(zone_count=3)
        assert len(controller.pools.all_spot_pools()) == 3
        assert len(controller.pools.on_demand_pools) == 3
        assert len(controller.zones) == 3

    def test_empty_zone_list_rejected(self):
        with pytest.raises(ValueError):
            SpotCheckController.deploy(
                Environment(seed=5), Region("us-east-1"), TraceArchive())


class TestZoneSpread:
    def test_vms_spread_across_zones(self):
        env, api, controller, region = build_multizone(zone_count=2)
        vms = launch_fleet(env, controller, 4)
        zones = {vm.host.zone.name for vm in vms}
        assert len(zones) == 2
        per_zone = [sum(1 for vm in vms if vm.host.zone.name == z.name)
                    for z in region.zones]
        assert per_zone == [2, 2]

    def test_zone_spike_displaces_only_that_zone(self):
        env, api, controller, region = build_multizone(
            SpotCheckConfig(allocation_policy="Z-M", return_to_spot=False),
            zone_count=2, spiky_zone=0)
        vms = launch_fleet(env, controller, 4)
        env.run(until=SPIKE_START + 600.0)
        displaced = [m for m in controller.ledger.migrations
                     if m.cause == "revocation"]
        assert len(displaced) == 2  # only zone-a VMs
        assert controller.ledger.max_concurrent_revocation() == 2

    def test_failover_stays_in_volume_zone(self):
        env, api, controller, region = build_multizone(
            SpotCheckConfig(allocation_policy="Z-M", return_to_spot=False),
            zone_count=2, spiky_zone=0)
        vms = launch_fleet(env, controller, 4)
        spiky_zone_vms = [vm for vm in vms
                          if vm.host.zone.name == region.zones[0].name]
        env.run(until=SPIKE_START + 600.0)
        for vm in spiky_zone_vms:
            assert vm.host.instance.market is Market.ON_DEMAND
            # EBS is zone-locked: the failover host shares the zone.
            assert vm.host.zone == vm.volume.zone
            assert vm.volume.attached_to is vm.host.instance

    def test_return_to_spot_goes_home_zone(self):
        env, api, controller, region = build_multizone(
            SpotCheckConfig(allocation_policy="Z-M",
                            return_holddown_s=600.0),
            zone_count=2, spiky_zone=0)
        vms = launch_fleet(env, controller, 2)
        env.run(until=SPIKE_END + 5000.0)
        for vm in vms:
            assert vm.state is VMState.RUNNING
            assert vm.host.instance.market is Market.SPOT
        zones = {vm.host.zone.name for vm in vms}
        assert len(zones) == 2  # back to one VM per zone

    def test_no_state_loss_multizone(self):
        env, api, controller, region = build_multizone(zone_count=2)
        launch_fleet(env, controller, 4)
        env.run(until=9 * DAY)
        controller.finalize()
        assert controller.ledger.state_loss_events() == []

"""Tests for the cloud API facade."""

import pytest

from repro.cloud.api import CloudApi
from repro.cloud.errors import BidTooLow, CapacityError, InvalidOperation
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import InstanceState, Market
from repro.cloud.zones import default_region
from repro.faults import CapacityEpisode, FaultInjector, FaultPlan

from tests.conftest import flat_trace, run_process, step_trace

MEDIUM = M3_CATALOG.get("m3.medium")


@pytest.fixture
def cloud(env, region, zone):
    api = CloudApi(env, region, M3_CATALOG)
    api.install_market(MEDIUM, zone, flat_trace(0.02))
    return api


class TestRunInstance:
    def test_on_demand_launch(self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            return instance
        instance = run_process(env, flow())
        assert instance.state is InstanceState.RUNNING
        # Table 1 start latency for on-demand: 47..86 seconds.
        assert 47 <= env.now <= 86

    def test_spot_launch_registers_in_market(self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.SPOT, bid=0.07)
            return instance
        instance = run_process(env, flow())
        market = cloud.marketplace.market(MEDIUM, zone)
        assert instance in market.instances()
        # Table 1 start latency for spot: 100..409 seconds.
        assert 100 <= env.now <= 409

    def test_spot_bid_below_price_rejected(self, env, cloud, zone):
        def flow():
            yield cloud.run_instance(MEDIUM, zone, Market.SPOT, bid=0.01)
        with pytest.raises(BidTooLow):
            run_process(env, flow())

    def test_spot_without_bid_rejected(self, env, cloud, zone):
        def flow():
            yield cloud.run_instance(MEDIUM, zone, Market.SPOT)
        with pytest.raises(ValueError):
            run_process(env, flow())

    def test_on_demand_capacity_limit(self, env, region, zone):
        api = CloudApi(env, region, M3_CATALOG, on_demand_capacity=1)
        def flow():
            yield api.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            yield api.run_instance(MEDIUM, zone, Market.ON_DEMAND)
        with pytest.raises(CapacityError):
            run_process(env, flow())

    def test_capacity_freed_on_terminate(self, env, region, zone):
        api = CloudApi(env, region, M3_CATALOG, on_demand_capacity=1)
        def flow():
            first = yield api.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            yield api.terminate_instance(first)
            second = yield api.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            return second
        instance = run_process(env, flow())
        assert instance.is_running


class TestRunInstancesBatch:
    def test_batch_pays_one_launch_latency(self, env, cloud, zone):
        def flow():
            instances = yield cloud.run_instances(
                MEDIUM, zone, Market.ON_DEMAND, 50)
            return instances
        instances = run_process(env, flow())
        assert len(instances) == 50
        assert all(i.state is InstanceState.RUNNING for i in instances)
        # One control-plane latency for the whole batch, not 50.
        assert 47 <= env.now <= 86

    def test_batch_spot_registers_every_instance(self, env, cloud, zone):
        def flow():
            instances = yield cloud.run_instances(
                MEDIUM, zone, Market.SPOT, 8, bid=0.07)
            return instances
        instances = run_process(env, flow())
        market = cloud.marketplace.market(MEDIUM, zone)
        registered = market.instances()
        assert all(i in registered for i in instances)
        assert all(i.id in cloud.instances for i in instances)

    def test_batch_checked_against_capacity(self, env, region, zone):
        api = CloudApi(env, region, M3_CATALOG, on_demand_capacity=3)
        def flow():
            yield api.run_instances(MEDIUM, zone, Market.ON_DEMAND, 5)
        with pytest.raises(CapacityError):
            run_process(env, flow())
        # The refused batch reserved nothing.
        assert api._running_on_demand == 0

    def test_batch_bid_below_price_rejected(self, env, cloud, zone):
        def flow():
            yield cloud.run_instances(MEDIUM, zone, Market.SPOT, 4,
                                      bid=0.01)
        with pytest.raises(BidTooLow):
            run_process(env, flow())

    def test_empty_batch_rejected(self, env, cloud, zone):
        def flow():
            yield cloud.run_instances(MEDIUM, zone, Market.ON_DEMAND, 0)
        with pytest.raises(ValueError):
            run_process(env, flow())

    def test_batch_billing_opens_per_instance(self, env, cloud, zone):
        def flow():
            instances = yield cloud.run_instances(
                MEDIUM, zone, Market.ON_DEMAND, 3)
            return instances
        instances = run_process(env, flow())
        for instance in instances:
            assert instance.id in cloud.billing.records


class TestTerminate:
    def test_graceful_terminate_stops_billing_immediately(
            self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            launch_time = env.now
            yield env.timeout(3600.0)
            yield cloud.terminate_instance(instance)
            return instance, launch_time
        instance, launch_time = run_process(env, flow())
        record = cloud.billing.records[instance.id]
        assert record.end == pytest.approx(launch_time + 3600.0)
        assert record.cost == pytest.approx(0.07)
        assert instance.state is InstanceState.TERMINATED

    def test_terminate_ignores_capacity_episode(self, env, region, zone):
        # The episode opens after the launch call (t=0) and covers
        # every later instant, so only the terminate can meet it.
        plan = FaultPlan(capacity_episodes=(
            CapacityEpisode(MEDIUM.name, zone.name, 1000.0, 1e9,
                            market="on-demand"),))
        injector = FaultInjector(env, plan)
        cloud = CloudApi(env, region, M3_CATALOG, faults=injector)

        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            yield env.timeout(1000.0)
            yield cloud.terminate_instance(instance)
            return instance
        instance = run_process(env, flow())
        assert instance.state is InstanceState.TERMINATED
        assert "capacity" not in injector.counts

    def test_double_terminate_rejected(self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            yield cloud.terminate_instance(instance)
            yield cloud.terminate_instance(instance)
        with pytest.raises(InvalidOperation):
            run_process(env, flow())


class TestRevocationTeardown:
    def test_forced_termination_releases_attachments(self, env, region, zone):
        api = CloudApi(env, region, M3_CATALOG)
        api.install_market(
            MEDIUM, zone, step_trace([(0, 0.02), (5000, 0.50)]))
        def flow():
            instance = yield api.run_instance(
                MEDIUM, zone, Market.SPOT, bid=0.07)
            volume = api.create_volume(8, zone)
            yield api.attach_volume(volume, instance)
            subnet = api.vpc.create_subnet(zone)
            eni = api.create_interface(subnet)
            yield api.attach_interface(eni, instance)
            yield instance.terminated
            return instance, volume, eni
        instance, volume, eni = run_process(env, flow())
        assert instance.state is InstanceState.TERMINATED
        assert volume.attached_to is None
        assert not eni.is_attached
        # Billing closed at the forced termination.
        assert api.billing.records[instance.id].end == pytest.approx(5120.0)

    def test_spot_billing_integrates_until_revocation(self, env, region, zone):
        api = CloudApi(env, region, M3_CATALOG)
        api.install_market(
            MEDIUM, zone, step_trace([(0, 0.036), (7200 + 300, 9.99)]))
        def flow():
            instance = yield api.run_instance(
                MEDIUM, zone, Market.SPOT, bid=0.07)
            yield instance.terminated
            return instance
        instance = run_process(env, flow())
        record = api.billing.records[instance.id]
        hours = (record.end - record.start) / 3600.0
        # Pays 0.036 until the spike, then the spike price for the
        # 120-second warning tail.
        assert record.cost == pytest.approx(
            0.036 * (hours - 120 / 3600.0) + 9.99 * 120 / 3600.0, rel=1e-6)


class TestVolumesAndInterfaces:
    def test_attach_detach_latencies(self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            volume = cloud.create_volume(8, zone)
            before = env.now
            yield cloud.attach_volume(volume, instance)
            attach_latency = env.now - before
            before = env.now
            yield cloud.detach_volume(volume)
            detach_latency = env.now - before
            return attach_latency, detach_latency
        attach_latency, detach_latency = run_process(env, flow())
        assert 4.4 <= attach_latency <= 9.3     # Table 1
        assert 9.6 <= detach_latency <= 11.3    # Table 1

    def test_interface_lifecycle(self, env, cloud, zone):
        def flow():
            instance = yield cloud.run_instance(
                MEDIUM, zone, Market.ON_DEMAND)
            subnet = cloud.vpc.create_subnet(zone)
            eni = cloud.create_interface(subnet)
            yield cloud.attach_interface(eni, instance)
            attached = eni.is_attached
            yield cloud.detach_interface(eni)
            return attached, eni.is_attached
        attached, detached = run_process(env, flow())
        assert attached and not detached

    def test_running_instances_listing(self, env, cloud, zone):
        def flow():
            a = yield cloud.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            b = yield cloud.run_instance(MEDIUM, zone, Market.ON_DEMAND)
            yield cloud.terminate_instance(a)
            return a, b
        a, b = run_process(env, flow())
        running = cloud.running_instances()
        assert b in running and a not in running

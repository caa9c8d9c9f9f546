"""Robustness: control-plane faults, revocation races, determinism.

The race and degradation tests behind ``docs/robustness.md``: a host
revoked while its request flow is still wiring, a graceful terminate
racing the platform's forced termination, detach retries overrunning
the warning deadline, the on-demand capacity reservation, and the
bit-identical-when-disabled guarantee of the fault layer.
"""

import pytest

from repro.cloud.api import CloudApi
from repro.cloud.errors import CapacityError, InvalidOperation
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Market
from repro.cloud.spot_market import SpotMarket
from repro.cloud.zones import default_region
from repro.core.controller import SpotCheckController
from repro.core.policies.placement import StabilityFirst
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.sim.errors import Interrupt
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive

from tests.conftest import flat_trace
from tests.core.test_controller import (
    SPIKE_START,
    build,
    launch_fleet,
    quiet_trace,
    spiky_trace,
)

DAY = 24 * 3600.0

MEDIUM = M3_CATALOG.get("m3.medium")
LARGE = M3_CATALOG.get("m3.large")


def build_faulty(plan, config=None, traces=None, seed=99, obs=None):
    """Like ``test_controller.build`` but with a fault injector wired."""
    trace_map = traces or {"m3.medium": spiky_trace("m3.medium", 0.07)}
    controller = SpotCheckController.deploy(
        Environment(seed=seed, obs=obs), default_region(1),
        TraceArchive(list(trace_map.values())), config, faults=plan)
    return controller.env, controller.api, controller, controller.api.faults


def degradations(obs, path=None):
    total = 0
    for series in obs.metrics.find("fault_degradations_total"):
        if path is None or series.labels.get("path") == path:
            total += int(series.value)
    return total


class TestPlacementUnderFaults:
    def test_transient_start_faults_still_place_vm(self):
        plan = FaultPlan(error_rates={"start_spot_instance": 0.7,
                                      "attach_volume": 0.5},
                         terminal_fraction=0.0)
        env, api, controller, injector = build_faulty(
            plan, traces={"m3.medium": quiet_trace("m3.medium", 0.07)})
        vms = launch_fleet(env, controller, count=3)
        for vm in vms:
            assert vm.is_running
            assert vm.volume.attached_to is vm.host.instance
        assert injector.total_injected > 0

    def test_terminal_spot_faults_degrade_to_on_demand(self):
        # Every spot launch fails terminally: the placement loop burns
        # its budget, notes the degradations, and parks the VM on an
        # on-demand host instead of raising out of the request flow.
        obs = Observability()
        plan = FaultPlan(error_rates={"start_spot_instance": 1.0},
                         terminal_fraction=1.0)
        env, api, controller, injector = build_faulty(
            plan, traces={"m3.medium": quiet_trace("m3.medium", 0.07)},
            obs=obs)
        [vm] = launch_fleet(env, controller, count=1)
        assert vm.is_running
        assert vm.host.instance.market is Market.ON_DEMAND
        assert degradations(obs, "request.placement") >= 1
        assert injector.counts["api-error-terminal"] >= 1

    def test_host_revoked_mid_request_flow(self):
        # The price spikes over the bid while the spot instance is
        # still inside its start latency: the market warns it at
        # registration time, so the request flow finishes wiring a
        # doomed host.  The controller must ride the revocation and
        # keep the VM alive — first on-demand, back on spot after the
        # spike.
        trace = PriceTrace([0.0, 5.0, 4000.0, 10 * DAY],
                           [0.014, 0.7, 0.014, 0.014],
                           "m3.medium", "us-east-1a", 0.07)
        env, api, controller = build(traces={"m3.medium": trace})
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=6000.0)
        assert vm.is_running
        assert vm.state.value == "running"

    def test_failed_wiring_releases_interface_and_address(self):
        # Every volume attach fails terminally, so each placement
        # attempt (spot, then the on-demand fallback loop) wires an
        # interface and a volume and must unwind both.  A leaked
        # private IP per attempt would exhaust the /24 within the
        # first simulated hour.
        plan = FaultPlan(error_rates={"attach_volume": 1.0},
                         terminal_fraction=1.0)
        env, api, controller, injector = build_faulty(
            plan, traces={"m3.medium": quiet_trace("m3.medium", 0.07)})
        customer = controller.start_customer("c")
        controller.request_server(customer)
        env.run(until=6 * 3600.0)
        assert injector.counts["api-error-terminal"] > 254
        [subnet] = customer.subnets.values()
        assert subnet.allocated == set()
        assert len(api.vpc.interfaces) > 254
        assert not any(eni.is_attached or eni.private_ips
                       for eni in api.vpc.interfaces.values())


class TestTerminateRaces:
    def test_graceful_terminate_after_forced_is_noop(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        instance = vm.host.instance
        api._force_terminate(instance)
        # EC2's terminate is idempotent against its own revocation.
        result = env.run(until=api.terminate_instance(instance))
        assert result is instance

    def test_graceful_terminate_twice_still_invalid(self):
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        instance = vm.host.instance
        env.run(until=api.terminate_instance(instance))
        with pytest.raises(InvalidOperation):
            env.run(until=api.terminate_instance(instance))

    def test_force_terminate_during_graceful_latency(self):
        # Graceful terminate is mid-latency when the platform force
        # terminates the instance; both complete, billing closes once.
        env, api, controller = build()
        [vm] = launch_fleet(env, controller, count=1)
        instance = vm.host.instance
        proc = api.terminate_instance(instance)

        def racer():
            yield env.timeout(0.5)  # inside the terminate latency
            api._force_terminate(instance)
            result = yield proc
            return result

        result = env.run(until=env.process(racer()))
        assert result is instance
        assert not instance.is_running
        record = api.billing.records[instance.id]
        assert record.end is not None


class TestRevocationDeadline:
    def test_detach_retries_overrun_deadline_degrade_no_state_loss(self):
        # Every detach fails transiently, so the revocation path's
        # deadline-aware retries exhaust inside the warning window and
        # the flow degrades: it waits for the platform's forced
        # termination (whose force-detach frees the attachments) and
        # restores at the destination from the backup image.  State is
        # never at risk; only downtime stretches.
        obs = Observability()
        plan = FaultPlan(error_rates={"detach_volume": 1.0},
                         terminal_fraction=0.0)
        env, api, controller, injector = build_faulty(plan, obs=obs)
        [vm] = launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START + 3000.0)
        assert vm.is_running
        assert vm.host.instance.market is Market.ON_DEMAND
        assert degradations(obs, "revocation.detach") >= 1
        assert controller.ledger.state_loss_events() == []
        [migration] = [m for m in controller.ledger.migrations
                       if m.cause == "revocation"]
        assert migration.state_safe
        # The degraded path's phase partition shows the forced wait.
        assert "forced-detach-wait" in migration.phases


class TestOnDemandCapacityAccounting:
    def _api(self, seed=7, capacity=1):
        env = Environment(seed=seed)
        region = default_region(1)
        api = CloudApi(env, region, M3_CATALOG,
                       on_demand_capacity=capacity)
        return env, api, region.zones[0]

    def test_slot_reserved_across_start_latency(self):
        # Two concurrent launches under a cap of one: the second must
        # see the first's reservation even though the first is still
        # inside its start latency, instead of both squeezing under
        # the cap.
        env, api, zone = self._api()
        outcomes = []

        def launch():
            try:
                instance = yield api.run_instance(
                    MEDIUM, zone, Market.ON_DEMAND)
                outcomes.append(instance)
            except CapacityError:
                outcomes.append("capacity")

        env.process(launch())
        env.process(launch())
        env.run(until=500.0)
        assert outcomes.count("capacity") == 1
        assert api._running_on_demand == 1
        assert len(api.instances) == 1

    def test_interrupted_launch_releases_reservation(self):
        # A launch killed inside its latency window must roll the
        # reservation back and leave no phantom instance behind.
        env, api, zone = self._api()
        proc = api.run_instance(MEDIUM, zone, Market.ON_DEMAND)

        def killer():
            yield env.timeout(1.0)
            proc.interrupt()
            try:
                yield proc
            except Interrupt:
                pass

        env.run(until=env.process(killer()))
        assert api._running_on_demand == 0
        assert api.instances == {}
        # The freed slot is usable again.
        instance = env.run(until=api.run_instance(
            MEDIUM, zone, Market.ON_DEMAND))
        assert instance.is_running

    def test_terminate_frees_capacity(self):
        env, api, zone = self._api()
        first = env.run(until=api.run_instance(
            MEDIUM, zone, Market.ON_DEMAND))
        env.run(until=api.terminate_instance(first))
        second = env.run(until=api.run_instance(
            MEDIUM, zone, Market.ON_DEMAND))
        assert second.is_running
        assert api._running_on_demand == 1


class TestStabilityFirstTieBreak:
    def _markets(self, env, zone, prices):
        markets = {}
        for type_name, price in prices.items():
            itype = M3_CATALOG.get(type_name)
            trace = flat_trace(price, type_name=type_name,
                               on_demand_price=itype.on_demand_price)
            markets[(type_name, zone.name)] = SpotMarket(
                env, itype, zone, trace)
        return markets

    def test_equal_volatility_prefers_cheaper_slot(self, env, zone):
        # Both flat traces have zero volatility; the sliced large at
        # 0.005/slot must beat the medium at 0.008 rather than being
        # skipped by an arbitrary first-seen tie-break.
        markets = self._markets(env, zone,
                                {"m3.medium": 0.008, "m3.large": 0.010})
        choice = StabilityFirst(M3_CATALOG).choose(MEDIUM, markets)
        assert choice.itype.name == "m3.large"
        assert choice.price_per_slot == pytest.approx(0.005)

    def test_equal_volatility_direct_when_cheaper(self, env, zone):
        markets = self._markets(env, zone,
                                {"m3.medium": 0.004, "m3.large": 0.010})
        choice = StabilityFirst(M3_CATALOG).choose(MEDIUM, markets)
        assert choice.itype.name == "m3.medium"

    def test_tie_break_independent_of_dict_order(self, env, zone):
        prices = {"m3.medium": 0.008, "m3.large": 0.010}
        forward = self._markets(env, zone, prices)
        backward = dict(reversed(list(
            self._markets(env, zone, prices).items())))
        policy = StabilityFirst(M3_CATALOG)
        assert (policy.choose(MEDIUM, forward).itype.name
                == policy.choose(MEDIUM, backward).itype.name)

    def test_full_tie_falls_back_to_market_key(self, env, zone):
        # Same volatility (zero) and same price per slot: the market
        # key decides, so the choice is deterministic.
        markets = self._markets(env, zone,
                                {"m3.medium": 0.008, "m3.large": 0.016})
        choice = StabilityFirst(M3_CATALOG).choose(MEDIUM, markets)
        assert choice.price_per_slot == pytest.approx(0.008)
        assert choice.itype.name == "m3.large"  # "m3.large" < "m3.medium"


class TestFaultsDisabledDeterminism:
    def _summary(self, faults):
        from repro.experiments.scenario import (
            PolicySimulation,
            ScenarioConfig,
        )
        config = ScenarioConfig(policy="1P-M", seed=7, days=2.0, vms=4,
                                faults=faults)
        return PolicySimulation(config).run()

    def test_disabled_plan_bit_identical_to_no_plan(self):
        # A present-but-disabled FaultPlan must not perturb a single
        # RNG draw or event ordering: the summaries are bit-identical.
        assert self._summary(None) == self._summary(FaultPlan())

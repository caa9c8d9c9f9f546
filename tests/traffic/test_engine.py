"""TrafficEngine: batch accounting at condition boundaries only."""

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.core.customer import Customer
from repro.obs import Observability
from repro.sim.kernel import Environment
from repro.traffic import (
    ConstantRate,
    CustomerTraffic,
    DiurnalRate,
    FlashCrowd,
    SlaTarget,
    TrafficEngine,
    TrafficMix,
)
from repro.virt.vm import NestedVM, VMState

DAY = 24 * 3600.0


def make_vm(env, customer, state=VMState.RUNNING):
    vm = NestedVM(env, M3_CATALOG.get("m3.medium"), customer=customer)
    customer.add_vm(vm)
    if state is not VMState.PROVISIONING:
        vm.set_state(state)
    return vm


def make_watched(env, pattern=None, sla=None, **engine_kwargs):
    customer = Customer(env, "web")
    engine = TrafficEngine(env, **engine_kwargs)
    traffic = CustomerTraffic("web", pattern or ConstantRate(10.0),
                              sla or SlaTarget())
    ledger = engine.watch(customer, traffic)
    return engine, customer, ledger


class TestAccounting:
    def test_requests_conserved(self, env):
        pattern = DiurnalRate(base_rps=50.0) + FlashCrowd(
            start_s=3600.0, peak_rps=200.0, ramp_s=600.0, hold_s=1800.0,
            decay_s=600.0)
        engine, customer, ledger = make_watched(env, pattern)
        make_vm(env, customer)
        engine.start(until=DAY)
        env.run(until=DAY)
        assert ledger.total_requests == pytest.approx(
            pattern.requests_between(0.0, DAY), rel=1e-9)
        assert ledger.accounted_s == pytest.approx(DAY)

    def test_downtime_becomes_failures(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        vm = make_vm(env, customer)

        def churn():
            yield env.timeout(1000.0)
            vm.set_state(VMState.SUSPENDED)
            yield env.timeout(50.0)
            vm.set_state(VMState.RUNNING)

        env.process(churn())
        engine.start(until=2000.0)
        env.run(until=2000.0)
        assert ledger.failed_requests == pytest.approx(500.0)
        assert ledger.down_s == pytest.approx(50.0)

    def test_segment_accounted_under_old_state(self, env):
        # The flush that a transition triggers must score the elapsed
        # time under the state the VM held *before* the transition.
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        vm = make_vm(env, customer)

        def churn():
            yield env.timeout(1000.0)
            vm.set_state(VMState.SUSPENDED)

        env.process(churn())
        engine.start(until=1000.0)
        env.run(until=1000.0)
        # All 10k requests landed while RUNNING; none failed.
        assert ledger.failed_requests == 0.0
        assert ledger.total_requests == pytest.approx(10000.0)

    def test_no_vms_means_all_errors(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(5.0))
        engine.start(until=100.0)
        env.run(until=100.0)
        assert ledger.error_rate == 1.0
        assert ledger.failed_requests == pytest.approx(500.0)

    def test_degraded_states_slow_but_succeed(self, env):
        engine, customer, ledger = make_watched(
            env, ConstantRate(10.0),
            SlaTarget(latency_ms=45.0, availability=0.9))
        vm = make_vm(env, customer, state=VMState.RESTORING)
        engine.start(until=100.0)
        env.run(until=100.0)
        assert ledger.failed_requests == 0.0
        assert ledger.degraded_s == pytest.approx(100.0)
        # Restore latency (~60 ms) blows the 45 ms threshold for most.
        assert ledger.slow_requests > 500.0

    def test_membership_change_splits_share(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        vm1 = make_vm(env, customer)

        def grow():
            yield env.timeout(500.0)
            vm2 = make_vm(env, customer)
            yield env.timeout(400.0)
            vm2.set_state(VMState.SUSPENDED)

        env.process(grow())
        engine.start(until=1000.0)
        env.run(until=1000.0)
        # Requests are conserved regardless of fleet size changes.
        assert ledger.total_requests == pytest.approx(10000.0)
        # The suspended VM carries half the arrival share for 100 s.
        assert ledger.failed_requests == pytest.approx(500.0)
        assert engine.stats["membership_flushes"] == 1
        assert engine.stats["state_flushes"] >= 2


class TestEventElision:
    def test_wakes_independent_of_volume(self, env):
        """The acceptance criterion, in miniature: x1000 the request
        volume, identical kernel wake and segment counts."""
        def run(users):
            env = Environment(seed=9)
            pattern = (DiurnalRate(base_rps=0.05) + FlashCrowd(
                start_s=0.5 * DAY, peak_rps=0.2, ramp_s=600.0,
                hold_s=3600.0, decay_s=600.0)).scaled(users)
            engine, customer, ledger = make_watched(env, pattern)
            vm = make_vm(env, customer)

            def churn():
                yield env.timeout(0.3 * DAY)
                vm.set_state(VMState.MIGRATING)
                yield env.timeout(60.0)
                vm.set_state(VMState.RUNNING)

            env.process(churn())
            engine.start(until=DAY)
            env.run(until=DAY)
            return engine.drive_stats()

        low, high = run(1_000), run(1_000_000)
        assert high["requests"] == pytest.approx(1000 * low["requests"])
        for key in ("wakes", "breakpoint_wakes", "report_wakes",
                    "window_rolls", "segments", "state_flushes"):
            assert high[key] == low[key]

    def test_wakes_are_reports_breakpoints_windows(self, env):
        crowd = FlashCrowd(start_s=5000.0, peak_rps=10.0, ramp_s=500.0,
                           hold_s=500.0, decay_s=500.0)
        engine, customer, ledger = make_watched(
            env, ConstantRate(1.0) + crowd,
            SlaTarget(window_s=20000.0), report_interval_s=10000.0)
        make_vm(env, customer)
        engine.start(until=40000.0)
        env.run(until=40000.0)
        stats = engine.drive_stats()
        assert stats["breakpoint_wakes"] == 4
        assert stats["report_wakes"] == 4
        # 10k, 20k (report+window), 30k, 40k, plus 4 crowd corners.
        assert stats["wakes"] == 8

    def test_state_changes_cost_no_kernel_events(self, env):
        engine, customer, ledger = make_watched(
            env, ConstantRate(1.0), SlaTarget(window_s=1e6),
            report_interval_s=1e6)
        vm = make_vm(env, customer)

        def churn():
            for _ in range(20):
                yield env.timeout(10.0)
                vm.set_state(VMState.MIGRATING)
                yield env.timeout(10.0)
                vm.set_state(VMState.RUNNING)

        env.process(churn())
        engine.start(until=1000.0)
        env.run(until=1000.0)
        stats = engine.drive_stats()
        assert stats["state_flushes"] == 40
        assert stats["wakes"] == 1  # the horizon only


class TestWindowsAndReports:
    def test_window_budget_uses_pattern_volume(self, env):
        engine, customer, ledger = make_watched(
            env, ConstantRate(10.0),
            SlaTarget(availability=0.99, window_s=100.0))
        make_vm(env, customer)
        engine.start(until=350.0)
        env.run(until=350.0)
        assert len(ledger.windows) == 4  # 3 full + 1 partial
        assert ledger.windows[0]["budget"] == pytest.approx(10.0)
        # The final, partial window's budget scales with its length.
        assert ledger.windows[3]["budget"] == pytest.approx(5.0)

    def test_breach_event_on_bus(self, env):
        obs = Observability()
        obs.attach(env)
        engine, customer, ledger = make_watched(
            env, ConstantRate(10.0),
            SlaTarget(availability=0.999, window_s=1000.0), obs=obs)
        vm = make_vm(env, customer)

        def churn():
            yield env.timeout(500.0)
            vm.set_state(VMState.SUSPENDED)

        env.process(churn())
        engine.start(until=1000.0)
        env.run(until=1000.0)
        breaches = [e for e in obs.events if e.name == "sla.breach"]
        windows = [e for e in obs.events if e.name == "sla.window"]
        reports = [e for e in obs.events if e.name == "sla.report"]
        assert len(breaches) == 1
        assert breaches[0].time == pytest.approx(1000.0)
        assert windows and reports

    def test_report_and_snapshot(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        make_vm(env, customer)
        engine.start(until=100.0)
        env.run(until=100.0)
        report = engine.report()
        assert set(report) == {"web"}
        assert report["web"]["total_requests"] == pytest.approx(1000.0)
        assert engine.ledger("web") is ledger
        with pytest.raises(KeyError):
            engine.ledger("nobody")


class TestLifecycle:
    def test_start_validation(self, env):
        engine = TrafficEngine(env)
        with pytest.raises(ValueError, match="no customers"):
            engine.start(until=100.0)
        engine.watch(Customer(env, "c"), CustomerTraffic("c"))
        with pytest.raises(ValueError, match="future"):
            engine.start(until=0.0)
        engine.start(until=100.0)
        with pytest.raises(ValueError, match="already started"):
            engine.start(until=200.0)

    def test_double_watch_rejected(self, env):
        engine = TrafficEngine(env)
        customer = Customer(env, "c")
        engine.watch(customer, CustomerTraffic("c"))
        with pytest.raises(ValueError, match="already watched"):
            engine.watch(customer, CustomerTraffic("c2"))

    def test_finalize_idempotent(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        make_vm(env, customer)
        engine.start(until=100.0)
        env.run(until=100.0)
        rolls = engine.stats["window_rolls"]
        engine.finalize()
        engine.finalize()
        assert engine.stats["window_rolls"] == rolls

    def test_prestart_churn_not_scored(self, env):
        engine, customer, ledger = make_watched(env, ConstantRate(10.0))
        vm = make_vm(env, customer)

        def flow():
            yield env.timeout(500.0)
            vm.set_state(VMState.SUSPENDED)  # pre-start: not scored
            yield env.timeout(100.0)
            vm.set_state(VMState.RUNNING)
            engine.start(until=1000.0)

        env.process(flow())
        env.run(until=1000.0)
        assert ledger.total_requests == pytest.approx(4000.0)
        assert ledger.failed_requests == 0.0


class TestTrafficMix:
    def test_allocation_largest_remainder(self):
        mix = TrafficMix(groups=(
            CustomerTraffic("a", weight=3.0),
            CustomerTraffic("b", weight=1.0)))
        assert mix.allocate_vms(12) == [9, 3]
        assert mix.allocate_vms(2) == [1, 1]
        assert sum(mix.allocate_vms(7)) == 7

    def test_allocation_validation(self):
        mix = TrafficMix(groups=(CustomerTraffic("a"),
                                 CustomerTraffic("b")))
        with pytest.raises(ValueError, match="cannot cover"):
            mix.allocate_vms(1)
        with pytest.raises(ValueError, match="no customer groups"):
            TrafficMix().allocate_vms(4)

    def test_group_type_checked(self):
        with pytest.raises(TypeError):
            TrafficMix(groups=("not-a-traffic",))
        with pytest.raises(ValueError):
            CustomerTraffic("a", weight=0.0)

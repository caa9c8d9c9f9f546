"""Heterogeneous-fleet scenarios for the batched checkpoint engine.

These scenarios were first written for the struct-of-arrays (SoA)
cohort core.  That core is retired and the group scheduler is the one
batched steady-flush engine, so the same scenarios now hold
:class:`GroupCheckpointScheduler` to the per-VM streams: same wake
times and credited flush totals under churn, mixed plans on one
scheduler and settlement.
The module and test names are kept so their history stays traceable.
"""

import pytest

from repro.backup.server import BackupServer
from repro.cloud.instance_types import M3_CATALOG
from repro.sim.kernel import Environment
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.virt.testbed import MicroTestbed
from repro.virt.vm import NestedVM
from repro.workloads import SpecJbbWorkload, TpcwWorkload

MEDIUM = M3_CATALOG.get("m3.medium")


def run_testbed(vm_count, grouped, duration_s=1800.0,
                workload=TpcwWorkload, checkpoint_config=None):
    env = Environment(seed=3)
    testbed = MicroTestbed(env, vm_count=vm_count,
                           workload_factory=workload,
                           checkpoint_config=checkpoint_config,
                           grouped=grouped)
    result = testbed.run_steady(duration_s)
    return env, testbed, result


def per_vm_rates(testbed, result):
    """Flush rates in VM creation order (ids are process-global, so
    the two testbeds' VMs must be matched positionally)."""
    return [result["per_vm_bps"][vm.id] for vm in testbed.vms]


class TestEquivalence:
    @pytest.mark.parametrize("vm_count", [1, 10, 40])
    def test_bit_identical_to_per_vm_streams(self, vm_count):
        _, bed_a, per_vm = run_testbed(vm_count, grouped=False)
        _, bed_b, batched = run_testbed(vm_count, grouped=True)
        assert per_vm_rates(bed_b, batched) == per_vm_rates(bed_a, per_vm)
        assert batched["aggregate_bps"] == per_vm["aggregate_bps"]

    @pytest.mark.parametrize("workload", [TpcwWorkload, SpecJbbWorkload])
    def test_bit_identical_across_workloads(self, workload):
        _, bed_a, per_vm = run_testbed(10, grouped=False, workload=workload)
        _, bed_b, batched = run_testbed(10, grouped=True, workload=workload)
        assert per_vm_rates(bed_b, batched) == per_vm_rates(bed_a, per_vm)

    def test_bit_identical_under_tight_throttle(self):
        config = CheckpointConfig(stream_bandwidth_bps=6e6,
                                  commit_bandwidth_bps=1.5e6)
        _, bed_a, per_vm = run_testbed(10, grouped=False,
                                       checkpoint_config=config)
        _, bed_b, batched = run_testbed(10, grouped=True,
                                        checkpoint_config=config)
        assert per_vm_rates(bed_b, batched) == per_vm_rates(bed_a, per_vm)

    def test_store_commits_match_per_vm_mode(self):
        _, per_vm_bed, _ = run_testbed(5, grouped=False)
        _, batched_bed, _ = run_testbed(5, grouped=True)
        for vm_a, vm_b in zip(per_vm_bed.vms, batched_bed.vms):
            expected = per_vm_bed.server.store.image(vm_a.id).history
            actual = batched_bed.server.store.image(vm_b.id).history
            # Same seed entry, then the same committed bytes: per round
            # per VM, or as one settled fold.
            assert actual[0] == expected[0]
            assert sum(b for _, b in actual[1:]) \
                == sum(b for _, b in expected[1:])

    def test_batching_elides_kernel_events(self):
        env_per_vm, _, _ = run_testbed(40, grouped=False)
        env_batched, _, _ = run_testbed(40, grouped=True)
        assert env_batched.events_processed * 5 < env_per_vm.events_processed


def make_scheduler(env):
    server = BackupServer(env)
    return GroupCheckpointScheduler(env, server.ingest)


def make_stream(env, workload=TpcwWorkload):
    vm = NestedVM(env, MEDIUM, workload=workload())
    return vm, CheckpointStream(vm.memory, CheckpointConfig())


class _RatedMemory:
    """Pure-rate test double: dirty is linear in the interval.

    ``dirty_bytes`` is a pure function of the interval, so per-VM
    streams (wake-time evaluation) and plan capture (sleep-time) agree
    exactly.  Deliberately not a ``MemoryModel`` so the plan cache is
    bypassed.
    """

    def __init__(self, rate_bps=2e6, interval_s=20.0):
        self.rate_bps = rate_bps
        self.base_interval_s = interval_s
        self.total_bytes = 4e9

    def interval_for_dirty_bytes(self, budget_bytes):
        return self.base_interval_s

    def dirty_bytes(self, interval_s):
        return self.rate_bps * min(interval_s, 3600.0)


def run_per_vm(env, memories, duration_s, drain_s=30.0):
    """Reference: one CheckpointStream process per memory double."""
    server = BackupServer(env)
    flushed = {}
    stops = []
    for index, memory in enumerate(memories):
        stream = CheckpointStream(memory, CheckpointConfig())
        stop = env.event()
        stops.append(stop)
        member = f"vm{index}"
        flushed[member] = 0.0

        def _account(nbytes, member=member):
            flushed[member] += nbytes

        stream.run(env, server.ingest, stop, on_flush=_account)
    env.run(until=duration_s)
    for stop in stops:
        stop.succeed()
    env.run(until=duration_s + drain_s)
    return flushed


def run_batched(env, memories, duration_s, drain_s=30.0):
    """The same memory doubles enrolled in one group scheduler."""
    server = BackupServer(env)
    sched = GroupCheckpointScheduler(env, server.ingest)
    for index, memory in enumerate(memories):
        stream = CheckpointStream(memory, CheckpointConfig())
        sched.join(f"vm{index}", stream)
    env.run(until=duration_s)
    env.run(until=env.process(sched.settle()))
    env.run(until=duration_s + drain_s)
    return sched, dict(sched.flushed)


class TestMixedPlans:
    def _memories(self):
        # Two plan classes enrolled at the same instant: aggregated
        # caps stay under the ingest capacity, so equivalence is exact
        # even when the classes' flows overlap (cap-bound individually).
        return [_RatedMemory(rate_bps=2e6, interval_s=20.0),
                _RatedMemory(rate_bps=2e6, interval_s=20.0),
                _RatedMemory(rate_bps=1.5e6, interval_s=30.0),
                _RatedMemory(rate_bps=1.5e6, interval_s=30.0)]

    def test_mixed_plans_match_per_vm(self):
        per_vm = run_per_vm(Environment(seed=9), self._memories(), 310.0)
        sched, batched = run_batched(Environment(seed=9), self._memories(),
                                     310.0)
        assert batched == per_vm
        # One cohort per plan class, not per member.
        assert sched.cohorts_created == 2
        assert sched.stats()["flows_issued"] > 0


class TestChurn:
    def test_later_join_starts_fresh_group(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        sched.join("a", stream_a)
        env.run(until=1.0)  # mid-interval
        sched.join("b", stream_b)
        assert sched.cohort_of("b") is not sched.cohort_of("a")
        assert sched.cohorts_created == 2

    def test_same_instant_same_plan_shares_group(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        sched.join("a", stream_a)
        sched.join("b", stream_b)
        assert sched.cohort_of("a") is sched.cohort_of("b")
        assert sched.cohorts_created == 1
        assert sched.member_count() == 2
        assert sched.cohort_of("a").plan == sched.cohort_of("b").plan

    def test_duplicate_join_rejected(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream = make_stream(env)
        sched.join("a", stream)
        with pytest.raises(ValueError, match="already enrolled"):
            sched.join("a", stream)

    def test_leaver_misses_rounds_after_departure(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort = sched.join("a", stream_a)
        sched.join("b", stream_b)
        interval, dirty, _cap = cohort.plan
        env.run(until=2.5 * interval)
        sched.leave("a")
        env.run(until=6.5 * interval)
        sched.settle_now()
        assert sched.flushed["a"] == pytest.approx(2 * dirty)
        assert sched.flushed["b"] == pytest.approx(6 * dirty)

    def test_churned_equals_per_vm_with_matching_lifetimes(self):
        """A member that leaves matches a per-VM stream stopped then,
        and a member enrolled mid-run matches a stream started then."""
        def stream():
            return CheckpointStream(
                _RatedMemory(rate_bps=2e6, interval_s=20.0),
                CheckpointConfig())

        env = Environment(seed=5)
        server = BackupServer(env)
        per_vm = {"a": 0.0, "b": 0.0}
        stops = {"a": env.event(), "b": env.event()}

        def start(member):
            def _account(nbytes):
                per_vm[member] += nbytes
            stream().run(env, server.ingest, stops[member],
                         on_flush=_account)

        start("a")
        env.run(until=130.0)
        stops["a"].succeed()
        start("b")
        env.run(until=310.0)
        stops["b"].succeed()
        env.run(until=340.0)

        env = Environment(seed=5)
        server = BackupServer(env)
        sched = GroupCheckpointScheduler(env, server.ingest)
        sched.join("a", stream())
        env.run(until=130.0)
        sched.leave("a")
        # Re-enrollment mid-run (fresh cohort at the new time).
        sched.join("b", stream())
        env.run(until=310.0)
        env.run(until=env.process(sched.settle()))
        assert sched.flushed == per_vm
        assert sched.cohorts_created == 2

    def test_dead_group_is_elided(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream = make_stream(env)
        cohort = sched.join("a", stream)
        env.run(until=1.0)
        sched.leave("a")
        # The emptied cohort is stopped at once; its process exits on
        # the next kernel step, long before its next round is due.
        assert cohort.stop.triggered
        assert sched.member_count() == 0
        env.run(until=2.0)
        assert 2.0 < cohort.plan[0]
        assert sched.stats()["cohorts_active"] == 0

    def test_in_flight_never_retains_dead_processes(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort = sched.join("a", stream_a)
        sched.join("b", stream_b)
        interval = cohort.plan[0]
        env.run(until=12.5 * interval)
        dead = [p for p in cohort.in_flight if not p.is_alive]
        assert len(dead) <= 1
        assert len(cohort.in_flight) < 5


class TestAccounting:
    def test_defer_mode_matches_eager_totals(self):
        """Settled totals equal per-VM streams' per-round crediting
        over the same join/leave/settle schedule."""
        def stream():
            return CheckpointStream(
                _RatedMemory(rate_bps=2e6, interval_s=20.0),
                CheckpointConfig())

        env = Environment(seed=7)
        server = BackupServer(env)
        stops = [env.event() for _ in range(5)]
        runs = [stream().run(env, server.ingest, stop) for stop in stops]
        env.run(until=75.0)
        stops[4].succeed()
        env.run(until=210.0)
        for stop in stops[:4]:
            stop.succeed()
        env.run(until=env.all_of(runs))
        per_vm = {f"vm{index}": run.value for index, run in enumerate(runs)}

        env = Environment(seed=7)
        server = BackupServer(env)
        sched = GroupCheckpointScheduler(env, server.ingest)
        for index in range(5):
            sched.join(f"vm{index}", stream())
        env.run(until=75.0)
        sched.leave("vm4")
        env.run(until=210.0)
        env.run(until=env.process(sched.settle()))
        assert sched.flushed == per_vm
        assert per_vm["vm4"] < per_vm["vm0"]

    def test_settle_now_credits_only_completed_rounds(self):
        env = Environment(seed=7)
        sched = make_scheduler(env)
        _, stream = make_stream(env)
        cohort = sched.join("a", stream)
        interval, dirty, _cap = cohort.plan
        env.run(until=4.5 * interval)
        flushed = sched.settle_now()
        assert flushed["a"] == pytest.approx(4 * dirty)
        assert sched.settle_now() is flushed

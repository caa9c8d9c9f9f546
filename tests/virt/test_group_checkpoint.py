"""Group checkpoint scheduler: batched cohorts vs per-VM streams.

The fleet-scale contract: at any fleet size the grouped scheduler must
reproduce the per-VM steady-state streams bit-for-bit (same wake
times, same credited flush totals), while waking once per shared
interval instead of once per VM.
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
        _, bed_b, grouped = run_testbed(vm_count, grouped=True)
        assert per_vm_rates(bed_b, grouped) == per_vm_rates(bed_a, per_vm)
        assert grouped["aggregate_bps"] == per_vm["aggregate_bps"]

    @pytest.mark.parametrize("workload", [TpcwWorkload, SpecJbbWorkload])
    def test_bit_identical_across_workloads(self, workload):
        _, bed_a, per_vm = run_testbed(10, grouped=False, workload=workload)
        _, bed_b, grouped = run_testbed(10, grouped=True, workload=workload)
        assert per_vm_rates(bed_b, grouped) == per_vm_rates(bed_a, per_vm)

    def test_bit_identical_under_tight_throttle(self):
        config = CheckpointConfig(stream_bandwidth_bps=6e6,
                                  commit_bandwidth_bps=1.5e6)
        _, bed_a, per_vm = run_testbed(10, grouped=False,
                                       checkpoint_config=config)
        _, bed_b, grouped = run_testbed(10, grouped=True,
                                        checkpoint_config=config)
        assert per_vm_rates(bed_b, grouped) == per_vm_rates(bed_a, per_vm)

    def test_store_commits_match_per_vm_mode(self):
        _, per_vm_bed, _ = run_testbed(5, grouped=False)
        _, grouped_bed, _ = run_testbed(5, grouped=True)
        for vm_a, vm_b in zip(per_vm_bed.vms, grouped_bed.vms):
            expected = per_vm_bed.server.store.image(vm_a.id).history
            actual = grouped_bed.server.store.image(vm_b.id).history
            # The full-image seed, then the steady commits: one per
            # round per VM, one settled fold grouped — the same bytes.
            assert actual[0] == expected[0]
            assert sum(b for _, b in actual[1:]) \
                == sum(b for _, b in expected[1:])
            assert len(actual) == 2

    def test_grouping_elides_kernel_events(self):
        env_per_vm, _, _ = run_testbed(40, grouped=False)
        env_grouped, _, _ = run_testbed(40, grouped=True)
        # One wakeup + one flow per cohort round instead of 40 of each.
        assert env_grouped.events_processed * 5 \
            < env_per_vm.events_processed


def make_scheduler(env):
    server = BackupServer(env)
    return GroupCheckpointScheduler(env, server.ingest)


def make_stream(env, workload=TpcwWorkload):
    vm = NestedVM(env, MEDIUM, workload=workload())
    return vm, CheckpointStream(vm.memory, CheckpointConfig())


class TestCohorts:
    def test_same_instant_same_plan_shares_cohort(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort_a = sched.join("a", stream_a)
        cohort_b = sched.join("b", stream_b)
        assert cohort_a is cohort_b
        assert sched.cohorts_created == 1
        assert sched.member_count() == 2

    def test_later_join_starts_fresh_cohort(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        sched.join("a", stream_a)
        env.run(until=1.0)  # mid-interval
        cohort_b = sched.join("b", stream_b)
        assert cohort_b is not sched.cohort_of("a")
        assert sched.cohorts_created == 2

    def test_duplicate_join_rejected(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream = make_stream(env)
        sched.join("a", stream)
        with pytest.raises(ValueError, match="already enrolled"):
            sched.join("a", stream)

    def test_empty_cohort_stops_immediately(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream = make_stream(env)
        cohort = sched.join("a", stream)
        env.run(until=1.0)
        sched.leave("a")
        assert cohort.stop.triggered
        env.run(until=2.0)
        assert not cohort.proc.is_alive
        assert sched.stats()["cohorts_active"] == 0

    def test_leaver_misses_rounds_after_departure(self):
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort = sched.join("a", stream_a)
        sched.join("b", stream_b)
        interval = cohort.plan[0]
        env.run(until=2.5 * interval)
        sched.leave("a")
        env.run(until=6.5 * interval)
        sched.settle_now()
        # "a" saw two completed rounds, "b" six.
        dirty = cohort.plan[1]
        assert sched.flushed["a"] == pytest.approx(2 * dirty)
        assert sched.flushed["b"] == pytest.approx(6 * dirty)

    def test_leaver_credited_through_on_flush_at_settle(self):
        """A leaver's completed rounds reach its ``on_flush`` at settle,
        folded into one call, just as they reach :attr:`flushed`."""
        env = Environment(seed=5)
        sched = make_scheduler(env)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        calls = {"a": [], "b": []}
        cohort = sched.join("a", stream_a, on_flush=calls["a"].append)
        sched.join("b", stream_b, on_flush=calls["b"].append)
        interval, dirty, _cap = cohort.plan
        env.run(until=2.5 * interval)
        sched.leave("a")
        env.run(until=6.5 * interval)
        sched.settle_now()
        assert calls["a"] == [dirty + dirty]
        assert sched.flushed["a"] == dirty + dirty
        assert len(calls["b"]) == 1

    def test_defer_mode_matches_eager_totals(self):
        """Settled totals equal per-VM streams, which credit every
        round as it completes, over one join/leave/settle schedule."""
        env = Environment(seed=7)
        sched = make_scheduler(env)
        for index in range(5):
            _, stream = make_stream(env)
            sched.join(f"vm{index}", stream)
        interval = sched.cohort_of("vm0").plan[0]
        env.run(until=3.5 * interval)
        sched.leave("vm4")
        env.run(until=10.5 * interval)
        env.run(until=env.process(sched.settle()))

        env = Environment(seed=7)
        server = BackupServer(env)
        stops = [env.event() for _ in range(5)]
        runs = []
        for stop in stops:
            _, stream = make_stream(env)
            runs.append(stream.run(env, server.ingest, stop))
        env.run(until=3.5 * interval)
        stops[4].succeed()
        env.run(until=10.5 * interval)
        for stop in stops[:4]:
            stop.succeed()
        env.run(until=env.all_of(runs))
        per_vm = {f"vm{index}": run.value for index, run in enumerate(runs)}
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
        # Four rounds armed and (by mid-interval) long since flushed.
        assert flushed["a"] == pytest.approx(4 * dirty)
        # Settling is idempotent.
        assert sched.settle_now() is flushed


class TestInFlightHygiene:
    def test_long_lived_cohort_sheds_dead_flows(self):
        """A cohort must not accumulate references to completed flush
        processes — under fleet-length runs that is a slow leak."""
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

"""Heterogeneous-fleet scenarios for the batched checkpoint engine.

These scenarios were first written for the struct-of-arrays (SoA)
cohort core.  That core is retired and the group scheduler is the one
batched steady-flush engine, so the same scenarios now hold
:class:`GroupCheckpointScheduler` to the per-VM streams: same wake
times and credited flush totals under churn, mixed plans on one
scheduler and settlement.
The module and test names are kept so their history stays traceable;
the mixed-plan and leave-then-rejoin scenarios live in
``test_group_checkpoint``.
"""

import pytest

from repro.backup.server import BackupServer
from repro.sim.kernel import Environment
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.workloads import SpecJbbWorkload, TpcwWorkload

from tests.virt.test_group_checkpoint import (
    _RatedMemory,
    make_scheduler,
    make_stream,
    per_vm_rates,
    run_testbed,
)

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

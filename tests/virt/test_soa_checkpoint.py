"""Heterogeneous-fleet scenarios for the batched checkpoint engine.

These scenarios were first written for the struct-of-arrays (SoA)
cohort core.  That core is retired and the group scheduler is the one
batched steady-flush engine, so the same scenarios now hold
:class:`GroupCheckpointScheduler` to the per-VM streams: same wake
times and credited flush totals under churn, mixed plans on one
scheduler and settlement.
The module and test names are kept so their history stays traceable;
the equivalence, mixed-plan and leave-then-rejoin scenarios live in
``test_group_checkpoint``.
"""

import pytest

from repro.backup.server import BackupServer
from repro.sim.kernel import Environment
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler

from tests.virt.test_group_checkpoint import (
    _RatedMemory,
    make_scheduler,
    make_stream,
)


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

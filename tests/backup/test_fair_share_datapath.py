"""Storm-fidelity tests for the shared fair-share backup datapath.

The acceptance bar for the DES datapath: isolated equal-size batches
must reproduce the closed-form ``n * image / aggregate`` estimates to
1e-6 relative error, overlapping batches must rebalance against each
other (the old scheduler froze ``concurrent`` at its own batch size),
early finishers must release bandwidth to survivors, and the fair-share
invariant must hold at every event time.
"""

import pytest

from repro.backup.scheduler import RestoreScheduler
from repro.backup.server import BackupServer, BackupUnavailable
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Instance, Market
from repro.cloud.zones import default_region
from repro.core.customer import Customer
from repro.experiments.fig8 import run_storm
from repro.sim.kernel import Environment
from repro.virt.memory import MemoryModel
from repro.virt.migration.bounded import BoundedTimeMigration
from repro.virt.migration.checkpoint import CheckpointStream
from repro.virt.vm import NestedVM, VMState
from repro.workloads import TpcwWorkload

GiB = 1024 ** 3
MB = 1e6


def make_vms(env, count):
    itype = M3_CATALOG.get("m3.medium")
    return [NestedVM(env, itype, workload=TpcwWorkload())
            for _ in range(count)]


class TestAnalyticEquivalence:
    """Isolated equal-size batches must match the closed forms exactly."""

    @pytest.mark.parametrize("optimized", [True, False])
    def test_full_batch_matches_analytic(self, env, optimized):
        server = BackupServer(env)
        scheduler = RestoreScheduler(server)
        vms = make_vms(env, 4)
        batch = scheduler.run_batch(
            env, [(vm, GiB) for vm in vms], "full", optimized)
        results = env.run(until=batch)
        expected = scheduler.full_restore_downtime_s(GiB, 4, optimized)
        for downtime, degraded in results:
            assert downtime == pytest.approx(expected, rel=1e-6)
            assert degraded == 0.0

    @pytest.mark.parametrize("optimized", [True, False])
    def test_lazy_batch_matches_analytic(self, env, optimized):
        server = BackupServer(env)
        scheduler = RestoreScheduler(server)
        vms = make_vms(env, 3)
        batch = scheduler.run_batch(
            env, [(vm, GiB) for vm in vms], "lazy", optimized)
        results = env.run(until=batch)
        want_down = scheduler.lazy_restore_downtime_s(concurrent=3)
        want_degraded = scheduler.lazy_restore_degraded_s(GiB, 3, optimized)
        for downtime, degraded in results:
            assert downtime == pytest.approx(want_down, rel=1e-6)
            assert degraded == pytest.approx(want_degraded, rel=1e-6)

    def test_single_full_restore_hits_aggregate(self, env):
        server = BackupServer(env)
        done = server.restore_read_flow(GiB, "full", True)
        env.run(until=done)
        assert env.now == pytest.approx(GiB / server.spec.seq_read_bps,
                                        rel=1e-6)


class TestStaggeredBatches:
    """Regression for the frozen-concurrency bug: a batch must feel
    restores launched by later, overlapping batches."""

    def test_overlapping_batches_contend(self, env):
        server = BackupServer(env)
        scheduler = RestoreScheduler(server)
        stagger = 10.0
        aggregate = server.spec.seq_read_bps  # full:opt, disk-bound

        def delayed(count, at_s):
            yield env.timeout(at_s)
            vms = make_vms(env, count)
            rows = yield scheduler.run_batch(
                env, [(vm, GiB) for vm in vms], "full", True)
            return rows

        first = env.process(delayed(2, 0.0))
        second = env.process(delayed(2, stagger))
        env.run(until=env.all_of([first, second]))

        # Piecewise fair shares: the first batch runs at aggregate/2
        # until t=10, then all four flows share aggregate/4 until the
        # first batch drains; the link never idles, so the last byte
        # lands at total/aggregate.
        first_done = stagger + \
            (GiB - (aggregate / 2) * stagger) / (aggregate / 4)
        last_done = 4 * GiB / aggregate
        isolated = scheduler.full_restore_downtime_s(GiB, 2, True)

        for downtime, _ in first.value:
            assert downtime == pytest.approx(first_done, rel=1e-6)
            assert downtime > isolated  # the old code reported exactly this
        for downtime, _ in second.value:
            assert downtime == pytest.approx(last_done - stagger, rel=1e-6)

    def test_overlap_raises_recorded_peak_concurrency(self, env):
        server = BackupServer(env)
        early = server.begin_restore()
        late = server.begin_restore()
        assert early.peak == 2 and late.peak == 2
        server.end_restore(late)
        third = server.begin_restore()
        # A restore spanning several overlaps reports the worst sharing.
        assert early.peak == 2
        server.end_restore(early)
        server.end_restore(third)
        assert server.active_restores == 0


class TestEarlyFinisher:
    def test_heterogeneous_sizes_release_bandwidth(self, env):
        # 450 MB and 900 MB images: equal shares until the small one
        # drains at 2*S/aggregate, then the big one takes the whole
        # read path and the last byte lands at (S1+S2)/aggregate.
        server = BackupServer(env)
        aggregate = server.spec.seq_read_bps
        small_bytes, big_bytes = 450 * MB, 900 * MB
        small = server.restore_read_flow(small_bytes, "full", True)
        big = server.restore_read_flow(big_bytes, "full", True)
        env.run(until=small)
        assert env.now == pytest.approx(2 * small_bytes / aggregate,
                                        rel=1e-6)
        env.run(until=big)
        assert env.now == pytest.approx(
            (small_bytes + big_bytes) / aggregate, rel=1e-6)


class TestFig7Knee:
    """The write-path knee under fair sharing, cross-checked two ways."""

    def test_below_knee_every_stream_gets_its_demand(self, env):
        server = BackupServer(env)
        for i in range(30):
            server.assign_stream(f"vm-{i}", 2.9 * MB)
        assert server.write_throttle_fraction() == 0.0
        assert all(rate == pytest.approx(2.9 * MB)
                   for rate in server.stream_fair_rates().values())

    def test_knee_position_matches_spec(self, env):
        # 2.9 MB/s TPC-W-class streams saturate the 110 MB/s write path
        # at floor(110/2.9) = 37 VMs — inside the paper's 35-40 band.
        server = BackupServer(env)
        demand = 2.9 * MB
        knee = int(server.spec.write_path_bps // demand)
        assert 35 <= knee <= 40
        for i in range(knee):
            server.assign_stream(f"vm-{i}", demand)
        assert server.write_throttle_fraction() == 0.0
        server.assign_stream("vm-over", demand)
        assert server.write_throttle_fraction() > 0.0

    def test_throttle_fraction_agrees_with_overload(self, env):
        server = BackupServer(env)
        for i in range(50):
            server.assign_stream(f"vm-{i}", 2.9 * MB)
        assert server.write_throttle_fraction() == pytest.approx(
            server.overload_fraction(), rel=1e-9)
        # Past the knee the grants flatten at the equal share.
        grants = set(server.stream_fair_rates().values())
        assert len(grants) == 1
        assert grants.pop() == pytest.approx(
            server.spec.write_path_bps / 50)


class TestStormInvariant:
    def test_mixed_commit_and_restore_load(self):
        result = run_storm()
        assert result["invariant_ok"]
        assert result["rebalances"] > 0
        assert result["per_vm"]
        for row in result["per_vm"]:
            assert row["downtime_s"] > 0.0
        for path, peak in result["peak_utilization"].items():
            assert peak <= 1.0 + 1e-9, path


class TestFailedServer:
    """A failed backup server serves no estimates and no flows."""

    def test_flows_rejected(self, env):
        server = BackupServer(env)
        server.mark_failed()
        with pytest.raises(BackupUnavailable):
            server.per_restore_bps("full", True, concurrent=1)
        with pytest.raises(BackupUnavailable):
            server.commit_flow(10 * MB)
        with pytest.raises(BackupUnavailable):
            server.skeleton_flow(5 * MB)
        with pytest.raises(BackupUnavailable):
            server.restore_read_flow(GiB, "lazy", True)
        with pytest.raises(BackupUnavailable):
            server.begin_restore()

    def test_run_batch_rejected(self, env):
        server = BackupServer(env)
        scheduler = RestoreScheduler(server)
        server.mark_failed()
        batch = scheduler.run_batch(
            env, [(vm, GiB) for vm in make_vms(env, 2)], "full", True)
        with pytest.raises(BackupUnavailable):
            env.run(until=batch)

    def test_mark_failed_is_idempotent(self, env):
        server = BackupServer(env)
        server.mark_failed()
        first = server.failed_at
        env.run(until=env.timeout(5.0))
        server.mark_failed()
        assert server.failed_at == first


class TestPerEnvironmentIds:
    def test_same_process_repeat_is_deterministic(self):
        def id_sequence():
            env = Environment(seed=7)
            return [BackupServer(env).id for _ in range(3)]

        first, second = id_sequence(), id_sequence()
        assert first == second == ["bak-0001", "bak-0002", "bak-0003"]

    def test_ids_unique_within_environment(self, env):
        assert BackupServer(env).id != BackupServer(env).id

    def test_fresh_environment_restarts_every_kind(self):
        medium = M3_CATALOG.get("m3.medium")
        zone = default_region(1).zones[0]

        def first_ids():
            env = Environment(seed=7)
            return (NestedVM(env, medium).id,
                    Instance(env, medium, zone, Market.ON_DEMAND).id,
                    Customer(env).id)

        first_ids()
        assert first_ids() == ("nvm-000001", "i-00000001", "cust-0001")


class TestInfeasibleCommitBound:
    """A VM dirtying faster than any interval can absorb has no honest
    time bound: planners must say so instead of flooring silently."""

    def hot_memory(self):
        # ~200 GB/s of page dirtying: over the 82.5 MB budget within 1 ms.
        return MemoryModel(total_bytes=GiB, write_rate_pages=5e7)

    def test_stream_reports_infeasible(self):
        stream = CheckpointStream(self.hot_memory())
        assert not stream.commit_bound_feasible()
        # Best-effort checkpointing still produces a finite interval.
        assert stream.interval_s() > 0.0

    def test_bounded_plan_marks_state_unsafe(self, env):
        server = BackupServer(env)
        outcome = BoundedTimeMigration(
            self.hot_memory(), server).plan(120.0)
        assert not outcome.state_safe

    def test_calm_vm_stays_safe(self, env):
        server = BackupServer(env)
        calm = MemoryModel(total_bytes=GiB, write_rate_pages=50.0)
        outcome = BoundedTimeMigration(calm, server).plan(120.0)
        assert outcome.state_safe
        assert outcome.within_deadline


class TestCommitBurst:
    def test_lone_final_commit_bursts(self, env):
        # A suspended VM's final commit on an idle datapath runs at the
        # full write path, far above the worst-case share the time
        # bound was provisioned for.
        server = BackupServer(env)
        done = server.commit_flow(82.5 * MB)
        env.run(until=done)
        assert env.now == pytest.approx(
            82.5 * MB / server.spec.write_path_bps, rel=1e-6)

    def test_storm_commit_degenerates_to_worst_case(self, env):
        # With a full complement of 40 committers the fair share is
        # exactly the provisioned commit_bandwidth_bps.
        server = BackupServer(env)
        for _ in range(40):
            server.commit_flow(MB)
        per_flow = {f.rate for f in server.datapath.flows}
        assert len(per_flow) == 1
        assert per_flow.pop() == pytest.approx(
            server.spec.write_path_bps / 40)

"""An executable micro-testbed: the Section 6.1 experiments as real DES.

The figure benches use the analytic forms of the checkpoint/restore
models (fast, closed-form).  This testbed runs the same machinery as
actual discrete-event processes — per-VM checkpoint streams flushing
over a shared link into a backup server's store, a scripted revocation
drill with the warning-period ramp, the final commits contending for
the ingest path, and a concurrent lazy/full restore batch — and
*measures* the outcomes from the VMs' state logs.

Its purpose is verification: the test suite asserts that the measured
DES behaviour and the analytic models agree, so neither can drift
silently.  It is also the closest thing in the reproduction to the
paper's physical end-to-end EC2 experiments.
"""

import functools

from repro.backup.scheduler import RestoreScheduler
from repro.backup.server import BackupServer
from repro.backup.store import CheckpointStore
from repro.cloud.instance_types import M3_CATALOG
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.virt.vm import NestedVM, VMState


class MicroTestbed:
    """One backup server plus a fleet of checkpointing nested VMs.

    Parameters
    ----------
    env:
        Simulation environment.
    vm_count:
        Number of nested VMs streaming checkpoints.
    workload_factory:
        Callable returning a workload per VM.
    backup_spec / checkpoint_config:
        Capacity/parameter overrides.
    """

    def __init__(self, env, vm_count=1, workload_factory=None,
                 backup_spec=None, checkpoint_config=None, grouped=False):
        if workload_factory is None:
            # Deferred: repro.workloads imports repro.virt.memory at
            # module scope, so a top-level import here would close an
            # import cycle through the virt package __init__.
            from repro.workloads import TpcwWorkload
            workload_factory = TpcwWorkload
        self.env = env
        #: Steady-state streaming mode: one process per stream, or the
        #: group (cohort) scheduler, which the equivalence tests hold
        #: bit-identical to per-VM mode.
        self.grouped = grouped
        self._group = None
        self.server = BackupServer(env, backup_spec)
        self.server.store = CheckpointStore(env)
        #: The backup server's ingest path: commit flows on the shared
        #: datapath, so the drill's final commits and restore batches
        #: contend on the same device the figure models describe.
        self.ingest = self.server.ingest
        self.checkpoint_config = checkpoint_config or CheckpointConfig()
        itype = M3_CATALOG.get("m3.medium")
        self.vms = []
        self.streams = {}
        self.flushed_bytes = {}
        self._stops = {}
        for _ in range(vm_count):
            vm = NestedVM(env, itype, workload=workload_factory())
            vm.set_state(VMState.RUNNING)
            stream = CheckpointStream(vm.memory, self.checkpoint_config)
            self.vms.append(vm)
            self.streams[vm.id] = stream
            self.flushed_bytes[vm.id] = 0.0
            self.server.assign_stream(vm.id, stream.stream_rate_bps())
            self.server.store.open_image(vm.id, vm.memory.total_bytes)
            self.server.store.seed_full_image(vm.id)

    # -- steady state -----------------------------------------------------

    def start_streams(self):
        """Begin steady checkpointing (per-VM processes or one cohort)."""
        if self.grouped:
            self._group = GroupCheckpointScheduler(
                self.env, self.ingest, on_flush=self._account)
            for vm in self.vms:
                self._group.join(vm.id, self.streams[vm.id])
            return
        for vm in self.vms:
            stop = self.env.event()
            self._stops[vm.id] = stop
            stream = self.streams[vm.id]
            stream.run(self.env, self.ingest, stop,
                       on_flush=functools.partial(self._account, vm.id, None))

    def _account(self, vm_id, _payload, flushed):
        self.flushed_bytes[vm_id] += flushed
        self.server.store.commit(vm_id, flushed)

    def stop_streams(self):
        if self._group is not None:
            for vm in self.vms:
                self._group.leave(vm.id)
        for stop in self._stops.values():
            if not stop.triggered:
                stop.succeed()
        self._stops.clear()

    def _settle_streams(self):
        """Credit the grouped rounds completed by now (per-VM streams
        credit theirs as they complete)."""
        if self._group is not None:
            self._group.settle_now()
            self._group = None

    def run_steady(self, duration_s):
        """Stream checkpoints for ``duration_s``; return measurements.

        Returns per-VM measured flush throughput (bytes/s) and the
        aggregate ingest utilization.
        """
        self.start_streams()
        self.env.run(until=self.env.now + duration_s)
        self.stop_streams()
        self.env.run(until=self.env.now + 1.0)  # drain stop events
        self._settle_streams()
        measured = {vm.id: self.flushed_bytes[vm.id] / duration_s
                    for vm in self.vms}
        aggregate = sum(measured.values())
        return {
            "per_vm_bps": measured,
            "aggregate_bps": aggregate,
            "utilization": aggregate / self.server.spec.write_path_bps,
        }

    # -- revocation drill ---------------------------------------------------

    def revocation_drill(self, warning_s=120.0, restore_kind="lazy",
                         optimized=True, ramped=True):
        """Revoke the host under every VM at once; measure the storm.

        Executes the full bounded-time sequence per VM as DES: the
        ramp window (degraded), the final commit contending on the
        shared ingest link, and a concurrent restore batch.  Returns
        per-VM measured (downtime, degraded) plus totals.
        """
        start = self.env.now
        self.stop_streams()
        done = self.env.process(
            self._drill(warning_s, restore_kind, optimized, ramped))
        results = self.env.run(until=done)
        self._settle_streams()
        for vm in self.vms:
            assert vm.state is VMState.RUNNING
        horizon = self.env.now
        measured = {}
        for vm in self.vms:
            measured[vm.id] = (
                vm.downtime_between(start, horizon),
                vm.degraded_time_between(start, horizon),
            )
        return {
            "per_vm": measured,
            "commit_results": results,
            "elapsed_s": horizon - start,
        }

    def _drill(self, warning_s, restore_kind, optimized, ramped):
        commits = []
        for vm in self.vms:
            commits.append(self.env.process(
                self._commit_one(vm, warning_s, ramped)))
        yield self.env.all_of(commits)

        scheduler = RestoreScheduler(self.server)
        batch = scheduler.run_batch(
            self.env,
            [(vm, vm.memory.total_bytes) for vm in self.vms],
            restore_kind, optimized)
        results = yield batch
        return results

    def _commit_one(self, vm, warning_s, ramped):
        """Ramp + final commit for one VM, on the shared ingest link."""
        stream = self.streams[vm.id]
        ramp_s = stream.warning_degradation_s(warning_s, ramped=ramped)
        if ramp_s > 0:
            vm.set_state(VMState.MIGRATING)
            # Walk the ramp: each tightened interval flushes its dirty
            # volume through the shared link.
            for interval in stream.ramp_schedule(warning_s):
                if self.env.now - vm.state_log[-1][0] >= ramp_s:
                    break
                dirty = vm.memory.dirty_bytes(interval)
                if dirty > 0:
                    yield self.ingest.transfer(
                        dirty,
                        rate_cap=self.checkpoint_config.stream_bandwidth_bps)
        vm.set_state(VMState.SUSPENDED)
        if ramped:
            residual = vm.memory.dirty_bytes(
                stream.feasible_ramp_interval_s())
        else:
            residual = vm.memory.dirty_bytes(stream.interval_s())
        if residual > 0:
            yield self.ingest.transfer(residual)
        self.server.store.commit(vm.id, residual)
        return residual

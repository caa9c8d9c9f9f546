"""Migration execution: the timelines behind every VM move.

Three flows, mirroring Section 3.5:

* :meth:`MigrationManager.migrate_on_revocation` — the bounded-time
  path.  On a warning the manager immediately starts acquiring a
  destination, lets the VM run (with the checkpoint ramp degrading it
  slightly) until the latest safe suspend point, commits the residual
  state, performs the EBS/ENI detach-attach dance through the cloud
  API (the ~23 s of control-plane downtime), and restores at the
  destination — fully or lazily per the configured mechanism.
* :meth:`MigrationManager.live_migrate` — the planned path (returns to
  spot, proactive moves, small-VM revocations): pre-copy rounds while
  running, a sub-second stop-and-copy, no backup server involved.
* Destination acquisition, shared by both: hot spare, free slot in the
  on-demand pool, staging slot, or a fresh on-demand instance.
"""

from repro.backup.scheduler import RESUME_OVERHEAD_S
from repro.backup.server import BackupUnavailable
from repro.cloud.errors import ApiError, CapacityError
from repro.cloud.instances import Market
from repro.faults.retry import retry_call
from repro.obs.trace import NULL_TRACER
from repro.virt.hypervisor import HostVM
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.virt.migration.live import PreCopyMigration
from repro.virt.migration.restore import SKELETON_BYTES
from repro.virt.vm import VMState

#: Safety margin, seconds, added to the worst-case suspend-side costs
#: when scheduling the latest safe suspend point.
SUSPEND_MARGIN_S = 2.0

#: Worst-case detach-side control-plane time (Table 1 max of
#: detach_volume + detach_network_interface).
WORST_DETACH_S = 11.3 + 12.0


class MigrationError(Exception):
    """A migration could not be carried out."""


def _pool_label(key):
    return "/".join(str(part) for part in key)


class _PhaseClock:
    """Times the contiguous phases of one migration.

    Each ``begin`` closes the previous phase, so the recorded phase
    durations partition the elapsed time exactly: summing the phases
    between suspend and resume reproduces the migration's downtime.
    Every phase is mirrored as a child span of the migration's trace
    (a no-op under :data:`~repro.obs.trace.NULL_TRACER`).
    """

    def __init__(self, env, tracer, trace):
        self.env = env
        self.tracer = tracer
        self.trace = trace
        self.phases = {}
        self._name = None
        self._start = None
        self._span = None

    def begin(self, name):
        self.end()
        self._name = name
        self._start = self.env.now
        self._span = self.tracer.start_span(self.trace, name)

    def end(self):
        if self._name is None:
            return
        elapsed = self.env.now - self._start
        self.phases[self._name] = self.phases.get(self._name, 0.0) + elapsed
        self.tracer.end(self._span)
        self._name = None
        self._span = None


class MigrationManager:
    """Executes migrations on behalf of the controller."""

    def __init__(self, controller):
        self.controller = controller
        self.env = controller.env
        self.api = controller.api
        self.config = controller.config
        self.ledger = controller.ledger
        #: backup-server id -> GroupCheckpointScheduler for that
        #: server's steady-state flush cohorts (steady_checkpoint_flush).
        self._flush_schedulers = {}
        #: vm id -> the scheduler currently streaming it.
        self._flush_members = {}

    # -- steady-state flush (group scheduler) ------------------------------

    def steady_flush_join(self, vm, backup):
        """Enroll a backed-up VM's steady checkpoint stream.

        All VMs of one backup server share a scheduler; VMs with
        identical plans that enroll at the same instant share a cohort
        (one wakeup per interval for the whole group).
        """
        if vm.id in self._flush_members:
            return
        scheduler = self._flush_schedulers.get(backup.id)
        if scheduler is None:
            scheduler = GroupCheckpointScheduler(self.env, backup.ingest)
            self._flush_schedulers[backup.id] = scheduler

        def _commit(flushed, vm_id=vm.id, store=backup.store,
                    image=backup.store.image(vm.id)):
            # Rounds settle at finalize.  A VM that released its backup
            # since still credits the scheduler's totals, but its image
            # is gone (or replaced by a fresh one), so the store is not.
            if vm_id in store and store.image(vm_id) is image:
                store.commit(vm_id, flushed)

        scheduler.join(vm.id, vm.checkpoint_stream, on_flush=_commit)
        self._flush_members[vm.id] = scheduler

    def steady_flush_leave(self, vm_id):
        """Drop a VM from its flush cohort (in-flight rounds drain)."""
        scheduler = self._flush_members.pop(vm_id, None)
        if scheduler is not None:
            scheduler.leave(vm_id)

    def settle_steady_flush(self):
        """Finalize every flush scheduler (synchronous, see finalize)."""
        for scheduler in self._flush_schedulers.values():
            scheduler.settle_now()

    def flush_drive_stats(self):
        """Aggregated group-scheduler counters for the fleet-scale tests."""
        totals = {"schedulers": len(self._flush_schedulers),
                  "cohorts_created": 0, "cohorts_active": 0,
                  "members": 0, "flows_issued": 0}
        for scheduler in self._flush_schedulers.values():
            stats = scheduler.stats()
            for key in ("cohorts_created", "cohorts_active", "members",
                        "flows_issued"):
                totals[key] += stats[key]
        return totals

    # -- destination acquisition ------------------------------------------

    def acquire_destination(self, vm, exclude_pool=None):
        """Process: produce a running host with a free slot for ``vm``.

        Preference order: hot spare, free slot in the on-demand pool,
        staging slot in another healthy pool, fresh on-demand instance.
        Returns ``(host, kind)`` where kind is one of ``"spare"``,
        ``"pool"``, ``"staging"``, ``"fresh"``.  Raises
        :class:`MigrationError` when nothing is available.
        """
        return self.env.process(self._acquire_steps(vm, exclude_pool))

    def _acquire_steps(self, vm, exclude_pool):
        ctl = self.controller
        vm_zone = vm.volume.zone if vm.volume is not None else None
        spare = ctl.spares.take_spare(zone=vm_zone)
        if spare is not None:
            spare.hypervisor.reserve_slot()
            return spare, "spare"
        od_pool = ctl.on_demand_pool_for(vm)
        host = od_pool.host_with_free_slot()
        if host is not None:
            host.hypervisor.reserve_slot()
            return host, "pool"
        staging = ctl.spares.find_staging_slot(
            ctl.pools.all_spot_pools(), exclude_pool=exclude_pool,
            zone=vm_zone)
        if staging is not None:
            staging.hypervisor.reserve_slot()
            return staging, "staging"
        try:
            instance = yield from retry_call(
                self.env,
                lambda: self.api.run_instance(
                    vm.itype, od_pool.zone, Market.ON_DEMAND),
                self.config.retry, "start_on_demand_instance")
        except (CapacityError, ApiError):
            # The platform is out of on-demand capacity (or its control
            # plane is failing hard); fall back to any staging slot even
            # if staging is disabled by policy — state is already safe
            # on the backup server, this only bounds the downtime.
            staging = ctl.spares.find_staging_slot(
                ctl.pools.all_spot_pools(), exclude_pool=None,
                zone=vm_zone)
            if staging is None:
                raise MigrationError(
                    f"no destination available for {vm.id}")
            staging.hypervisor.reserve_slot()
            return staging, "staging"
        host = HostVM(self.env, instance, vm.itype, slots=1)
        host.hypervisor.reserve_slot()
        od_pool.add_host(host)
        return host, "fresh"

    def acquire_patiently(self, vm, exclude_pool=None):
        """Process: like :meth:`acquire_destination`, but never fails.

        Started fire-and-forget at warning time (step 1 of the
        bounded-time path), long before anything joins it — an early
        failure would crash the kernel, and the bounded path has no
        better answer than waiting anyway (the VM's state is safe on
        its backup server; a missing destination only stretches the
        downtime).  Exhausted rounds back off with the policy's
        capped exponential schedule and try again.
        """
        return self.env.process(self._acquire_patiently(vm, exclude_pool))

    def _acquire_patiently(self, vm, exclude_pool):
        round_ = 0
        while True:
            try:
                return (yield from self._acquire_steps(vm, exclude_pool))
            except (MigrationError, CapacityError, ApiError) as exc:
                round_ += 1
                self.controller._note_degraded("migration.acquire", exc)
                yield self.env.timeout(
                    self.config.retry.backoff_cap_s(round_))

    # -- bounded-time path ---------------------------------------------------

    def migrate_on_revocation(self, vm, source_host, deadline, source_pool,
                              storm=None):
        """Process: move ``vm`` off a revoked host before ``deadline``."""
        return self.env.process(self._revocation_flow(
            vm, source_host, deadline, source_pool, storm))

    def _revocation_flow(self, vm, source_host, deadline, source_pool, storm):
        cfg = self.config
        mech = cfg.mechanism
        if getattr(vm, "_migration_busy", False) or not vm.is_running:
            return None
        vm._migration_busy = True
        try:
            result = yield from self._revocation_steps(
                vm, source_host, deadline, source_pool, storm, cfg, mech)
        finally:
            vm._migration_busy = False
        return result

    def _revocation_steps(self, vm, source_host, deadline, source_pool,
                          storm, cfg, mech):
        # VMs without a usable backup image — the live-only baseline,
        # the small-VM exception, briefly staged VMs, and VMs whose
        # image is still re-seeding after a backup failure — ride the
        # warning with a live migration; state is at risk if pre-copy
        # cannot finish inside the warning.
        backup = vm.backup_assignment
        image_usable = (
            backup is not None and not getattr(backup, "failed", False)
            and vm.id in backup.store
            and backup.store.image(vm.id).is_complete)
        if cfg.live_migration_only or not image_usable:
            live_planner = PreCopyMigration(
                bandwidth_bps=cfg.live_migration_bps)
            live_plan = live_planner.plan(vm.memory)
            warning = deadline - self.env.now
            state_safe = (live_plan.converged and
                          live_plan.total_time_s <= warning)
            dest_host = yield self._live_proc(
                vm, source_host, cause="revocation",
                exclude_pool=source_pool, state_safe=state_safe)
            if dest_host is not None:
                # The VM now sits on the on-demand side; mark it parked
                # so the allocation dynamics bring it back to spot when
                # the price recovers.
                self.controller.note_parked(vm, source_pool, "pool")
            return dest_host

        warning = deadline - self.env.now
        mechanism = f"bounded-{mech.restore_kind}"
        obs = self.env.obs
        tracer = obs.tracer if obs is not None else NULL_TRACER
        trace = tracer.start_trace(
            "migration", vm=vm.id, cause="revocation", mechanism=mechanism,
            source=_pool_label(source_pool.key), warning_s=warning)
        clock = _PhaseClock(self.env, tracer, trace)

        # 1. Start destination acquisition immediately (patient form:
        #    it runs unjoined until step 6, so it must absorb failures
        #    rather than die and crash the kernel).
        acquire_span = tracer.start_span(trace, "dest-acquire")
        dest_proc = self.acquire_patiently(vm, exclude_pool=source_pool)

        # 2. Plan the suspend point: as late as safety allows.
        stream = vm.checkpoint_stream
        commit_s = stream.final_commit_downtime_s(ramped=mech.warning_ramp)
        suspend_at = deadline - (commit_s + WORST_DETACH_S + SUSPEND_MARGIN_S)
        suspend_at = max(suspend_at, self.env.now)

        # 3. Ramp window: degraded while checkpoints tighten.
        ramp_s = stream.warning_degradation_s(
            warning, ramped=mech.warning_ramp)
        run_until_ramp = max(suspend_at - ramp_s - self.env.now, 0.0)
        if run_until_ramp > 0:
            clock.begin("warning-run")
            yield self.env.timeout(run_until_ramp)
        degraded_s = 0.0
        if ramp_s > 0:
            clock.begin("checkpoint-ramp")
            vm.set_state(VMState.MIGRATING)
            yield self.env.timeout(max(suspend_at - self.env.now, 0.0))
            degraded_s += ramp_s
        clock.end()

        # 4. Suspend and commit the residual dirty state as a real
        #    write flow on the backup server's shared datapath.  Alone,
        #    the commit bursts far past the guaranteed rate (faster
        #    than the worst-case estimate the suspend point budgeted
        #    for); in a full storm the fair share degenerates to
        #    exactly the provisioned ``commit_bandwidth_bps``.  From
        #    here to the end of the restore, every phase is downtime;
        #    the phase clock partitions that window, so the per-phase
        #    durations sum exactly to the recorded downtime (Table 1
        #    per migration).
        vm.set_state(VMState.SUSPENDED)
        suspend_started = self.env.now
        clock.begin("final-commit")
        state_safe = stream.commit_bound_feasible()
        if mech.warning_ramp:
            residual = vm.memory.dirty_bytes(
                stream.feasible_ramp_interval_s())
        else:
            residual = vm.memory.dirty_bytes(stream.interval_s())
        if residual > 0:
            try:
                yield backup.commit_flow(residual)
            except BackupUnavailable:
                # The backup server died between the warning and the
                # suspend: the residual has nowhere to go.
                state_safe = False
        if self.env.now > deadline:
            state_safe = False

        # 5. Detach the volume and interface from the doomed host.
        #    These EC2 operations "can only detach a VM's EBS volumes
        #    and its network interface after the VM is paused" and run
        #    sequentially — together with the reattach below they are
        #    the paper's ~22.65 s control-plane downtime.
        yield from self._detach_for_migration(vm, source_host, deadline,
                                              clock)
        source_host.hypervisor.evict(vm)

        # 6. Join destination acquisition (usually already complete).
        clock.begin("dest-wait")
        dest_host, dest_kind = yield dest_proc
        tracer.end(acquire_span)

        # 7. Reattach at the destination and move the private IP.  The
        #    VM's state is safe on the backup server, so persistence
        #    beats failure here: the attaches retry until they land.
        if vm.volume is not None:
            clock.begin("ebs-attach")
            yield from self._insist(
                lambda: self.api.attach_volume(vm.volume,
                                               dest_host.instance),
                "attach_volume", "revocation.attach")
        if vm.eni is not None:
            clock.begin("vpc-attach")
            yield from self._insist(
                lambda: self.api.attach_interface(vm.eni, dest_host.instance),
                "attach_network_interface", "revocation.attach")

        # 8. Restore from the backup server as real read flows.  The
        #    flows share the datapath with every other storm in flight,
        #    so the concurrency a restore experiences is whatever
        #    actually overlaps it — not a per-storm snapshot.  Recorded
        #    ``concurrent`` is the peak simultaneous restores the
        #    server saw during this VM's restore window.
        backup = vm.backup_assignment
        usable = (backup is not None and not backup.failed
                  and vm.id in backup.store
                  and backup.store.image(vm.id).is_complete)
        concurrent = 1
        token = None
        clock.begin("restore")
        try:
            if usable:
                token = backup.begin_restore()
                if mech.restore_kind == "full":
                    yield backup.restore_read_flow(
                        vm.memory.total_bytes, "full",
                        mech.restore_optimized)
                else:
                    yield backup.skeleton_flow(SKELETON_BYTES)
                    yield self.env.timeout(RESUME_OVERHEAD_S)
            else:
                # The image vanished mid-migration (the backup crashed
                # after the warning-time check): resume from the
                # durable volume with memory state lost.
                state_safe = False
            clock.end()
            downtime_s = self.env.now - suspend_started
            dest_host.hypervisor.attach(vm)
            vm.host = dest_host
            if usable and mech.restore_kind == "lazy":
                clock.begin("demand-page-tail")
                vm.set_state(VMState.RESTORING)
                tail_started = self.env.now
                try:
                    yield backup.restore_read_flow(
                        vm.memory.total_bytes, "lazy",
                        mech.restore_optimized)
                except BackupUnavailable:
                    # Crashed under the demand-paging tail: the pages
                    # not yet faulted in are lost.
                    state_safe = False
                degraded_s += self.env.now - tail_started
                clock.end()
        finally:
            if token is not None:
                concurrent = max(token.peak, 1)
                backup.end_restore(token)
        vm.set_state(VMState.RUNNING)

        # 9. The VM now sits on a non-revocable server: no backup needed.
        self.controller.release_backup(vm)
        self.controller.note_parked(vm, source_pool, dest_kind)

        #: Only the phases inside the suspend window decompose the
        #: downtime; the pre-suspend and post-restore phases are
        #: degradation, reported separately.
        downtime_phases = {
            name: seconds for name, seconds in clock.phases.items()
            if name not in ("warning-run", "checkpoint-ramp",
                            "demand-page-tail")}
        self.ledger.record_migration(
            vm_id=vm.id, cause="revocation", mechanism=mechanism,
            downtime_s=downtime_s, degraded_s=degraded_s,
            source_pool=source_pool.key,
            dest_pool=("on-demand", vm.itype.name, dest_host.zone.name),
            concurrent=concurrent, state_safe=state_safe,
            phases=downtime_phases)
        tracer.end(trace)
        if obs is not None:
            self._publish_migration(
                obs, vm, cause="revocation", mechanism=mechanism,
                downtime_s=downtime_s, degraded_s=degraded_s,
                phases=downtime_phases, concurrent=concurrent,
                state_safe=state_safe)
        # A staging destination is itself revocable and may have been
        # warned while we restored.
        self.chase_if_doomed(vm, dest_host)
        return dest_host

    def _detach_for_migration(self, vm, source_host, deadline, clock):
        """Detach the volume and ENI before ``deadline`` — or let the
        platform do it.

        Retries are deadline-aware: a backoff that would overrun the
        remaining warning window is not taken.  When retries are
        exhausted the flow degrades by waiting for the platform's
        forced termination, whose force-detach releases both
        attachments for free — the VM's state is already committed to
        the backup server, so only downtime (never state) is at stake.
        """
        policy = self.config.retry
        try:
            if vm.volume is not None:
                clock.begin("ebs-detach")
                yield from retry_call(
                    self.env, lambda: self.api.detach_volume(vm.volume),
                    policy, "detach_volume", deadline=deadline)
            if vm.eni is not None:
                clock.begin("vpc-detach")
                yield from retry_call(
                    self.env, lambda: self.api.detach_interface(vm.eni),
                    policy, "detach_network_interface", deadline=deadline)
        except ApiError as exc:
            self.controller._note_degraded("revocation.detach", exc)
            clock.begin("forced-detach-wait")
            yield source_host.instance.terminated

    def _insist(self, factory, operation, path):
        """Retry ``factory`` until it succeeds (post-suspend phases).

        Each exhausted policy round is recorded as one degradation and
        followed by a full ``max_delay_s`` hold-down before the next
        round.
        """
        while True:
            try:
                return (yield from retry_call(
                    self.env, factory, self.config.retry, operation))
            except ApiError as exc:
                self.controller._note_degraded(path, exc)
                yield self.env.timeout(self.config.retry.max_delay_s)

    def _publish_migration(self, obs, vm, cause, mechanism, downtime_s,
                           degraded_s, phases, concurrent, state_safe):
        """Emit the completion event and the migration metrics."""
        obs.emit("migration.completed", vm=vm.id, cause=cause,
                 mechanism=mechanism, downtime_s=downtime_s,
                 degraded_s=degraded_s, concurrent=concurrent,
                 state_safe=state_safe)
        obs.metrics.counter(
            "migrations_total", cause=cause, mechanism=mechanism).inc()
        obs.metrics.histogram(
            "migration_downtime_seconds", mechanism=mechanism).observe(
                downtime_s)
        obs.metrics.histogram(
            "migration_degraded_seconds", mechanism=mechanism).observe(
                degraded_s)
        for phase, seconds in phases.items():
            obs.metrics.histogram(
                "migration_phase_seconds", phase=phase).observe(seconds)
        if not state_safe:
            obs.metrics.counter("migration_state_risk_total",
                                mechanism=mechanism).inc()

    # -- live path -------------------------------------------------------

    def live_migrate(self, vm, source_host, cause, dest_host=None,
                     exclude_pool=None, state_safe=True):
        """Process: pre-copy ``vm`` to a destination while it runs.

        Used for returns to spot, proactive moves, and the small-VM /
        live-only revocation paths.  If ``dest_host`` is None a
        destination is acquired (on-demand side).
        """
        def _locked():
            if getattr(vm, "_migration_busy", False) or not vm.is_running:
                return None
            vm._migration_busy = True
            try:
                result = yield from self._live_flow(
                    vm, source_host, cause, dest_host, exclude_pool,
                    state_safe)
            finally:
                vm._migration_busy = False
            if result is not None and not result.instance.is_spot:
                self.chase_if_doomed(vm, result)
            return result

        return self.env.process(_locked())

    def chase_if_doomed(self, vm, landed_host):
        """Chain another migration if the VM landed on a warned host.

        A migration in flight cannot join the storm of its *destination*
        (the watcher snapshot predates the arrival), so an arriving VM
        must check the host's fate itself.  For spot landings the
        *caller* invokes this — after re-assigning the backup server —
        so a chained revocation can use the bounded-time path.
        """
        instance = landed_host.instance
        if not instance.is_spot or vm.host is not landed_host:
            return
        if instance.state.value != "marked-for-termination":
            return
        pool = self.controller.pools.pool_of_host(landed_host)
        deadline = instance.termination_notice.value
        if pool is not None and deadline > self.env.now:
            self.migrate_on_revocation(vm, landed_host, deadline, pool)

    def _live_proc(self, vm, source_host, cause, dest_host=None,
                   exclude_pool=None, state_safe=True):
        """Live flow as a process, without taking the busy lock (used
        from flows that already hold it)."""
        return self.env.process(self._live_flow(
            vm, source_host, cause, dest_host, exclude_pool, state_safe))

    def _live_flow(self, vm, source_host, cause, dest_host, exclude_pool,
                   state_safe):
        cfg = self.config
        planner = PreCopyMigration(bandwidth_bps=cfg.live_migration_bps)
        plan = planner.plan(vm.memory)
        obs = self.env.obs
        tracer = obs.tracer if obs is not None else NULL_TRACER
        trace = tracer.start_trace(
            "migration", vm=vm.id, cause=cause, mechanism="live",
            rounds=plan.rounds, converged=plan.converged)

        if dest_host is None:
            acquire_span = tracer.start_span(trace, "dest-acquire")
            try:
                dest_host, _kind = yield self.acquire_destination(
                    vm, exclude_pool=exclude_pool)
            except (MigrationError, CapacityError, ApiError) as exc:
                # No destination: the move is abandoned and the VM
                # stays put (callers treat None as "did not move"; a
                # doomed source then rides the forced termination).
                self.controller._note_degraded("live.acquire", exc)
                tracer.end(acquire_span)
                tracer.end(trace)
                return None
            tracer.end(acquire_span)

        # Pre-copy rounds: the VM runs, mildly degraded.
        precopy_span = tracer.start_span(trace, "pre-copy")
        vm.set_state(VMState.MIGRATING)
        yield self.env.timeout(plan.total_time_s - plan.downtime_s)
        tracer.end(precopy_span)

        # Stop-and-copy: the only downtime of a planned live migration.
        # (For planned moves the volume/interface handoff is overlapped
        # with the pre-copy rounds; revocation-path migrations pay it
        # in full — see _revocation_flow.)
        stop_span = tracer.start_span(trace, "stop-and-copy")
        vm.set_state(VMState.SUSPENDED)
        yield self.env.timeout(plan.downtime_s)
        if not dest_host.instance.is_running:
            # The destination died during the pre-copy (e.g. a staging
            # host got revoked): restart the stop-and-copy against a
            # fresh destination; the source still holds the state.
            try:
                dest_host, _kind = yield self.acquire_destination(
                    vm, exclude_pool=exclude_pool)
            except (MigrationError, CapacityError, ApiError) as exc:
                self.controller._note_degraded("live.acquire", exc)
                vm.set_state(VMState.RUNNING)
                tracer.end(stop_span)
                tracer.end(trace)
                return None
            yield self.env.timeout(plan.downtime_s)
        tracer.end(stop_span)
        source_host.hypervisor.evict(vm)
        dest_host.hypervisor.attach(vm)
        self._relocate_attachments(vm, dest_host.instance)
        vm.host = dest_host
        vm.set_state(VMState.RUNNING)

        source_pool = self.controller.pools.pool_of_host(source_host)
        dest_pool = self.controller.pools.pool_of_host(dest_host)
        phases = {"stop-and-copy": plan.downtime_s}
        self.ledger.record_migration(
            vm_id=vm.id, cause=cause, mechanism="live",
            downtime_s=plan.downtime_s,
            degraded_s=plan.total_time_s - plan.downtime_s,
            source_pool=source_pool.key if source_pool else ("?",),
            dest_pool=dest_pool.key if dest_pool else ("?",),
            concurrent=1, state_safe=state_safe, phases=phases)
        tracer.end(trace)
        if obs is not None:
            self._publish_migration(
                obs, vm, cause=cause, mechanism="live",
                downtime_s=plan.downtime_s,
                degraded_s=plan.total_time_s - plan.downtime_s,
                phases=phases, concurrent=1, state_safe=state_safe)
        return dest_host

    def _relocate_attachments(self, vm, dest_instance):
        """Move the VM's volume and interface to the destination host.

        For *planned* live migrations the control-plane detach/attach
        is overlapped with the pre-copy rounds, so no extra latency is
        charged here; only the resource bookkeeping moves.  The
        revocation path, where the ops sit squarely inside the
        downtime window, performs them through the latency-charging
        API instead (see ``_revocation_steps``).
        """
        volume = vm.volume
        if volume is not None:
            if volume.attached_to is not None or \
                    volume.state.value in ("attaching", "detaching", "in-use"):
                volume._force_detach()
            volume._begin_attach(dest_instance)
            volume._finish_attach()
        eni = vm.eni
        if eni is not None:
            if eni.is_attached:
                eni._detach()
            eni._attach(dest_instance)

    # -- estimates used by policies ----------------------------------------

    def live_fits_warning(self, memory, warning_s):
        """Whether a live migration is trustworthy within a warning."""
        planner = PreCopyMigration(
            bandwidth_bps=self.config.live_migration_bps)
        plan = planner.plan(memory)
        return (plan.converged and
                plan.total_time_s <= warning_s * self.config.live_safety_factor)

    def skeleton_bytes(self):
        return SKELETON_BYTES

"""Continuous memory checkpointing (the bounded-time migration engine).

A background process repeatedly flushes the pages dirtied since the
previous checkpoint to a backup server, keeping the *residual* dirty
state small enough that it "can be safely committed upon a revocation
within the time bound" [Yank, NSDI'13].  The checkpoint interval is the
longest interval whose dirty volume still fits the commit budget.

Two implementation details from the paper's Section 5 are modelled:

* the SpotCheck optimization that "increases the checkpointing
  frequency after receiving a warning, which reduces the amount of
  dirty pages the nested VM must transfer" — a geometric ramp of the
  interval during the warning period; and
* the per-VM bandwidth throttle on the backup path.
"""

from dataclasses import dataclass

from repro.virt.memory import DirtyBudgetInfeasible


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing parameters.

    Attributes
    ----------
    time_bound_s:
        Upper bound on the final commit (the paper's experiments use a
        conservative 30 s, well under EC2's 120 s warning).
    commit_bandwidth_bps:
        Bytes/s guaranteed for the final commit.  The bound must hold
        even during a revocation storm, when every VM assigned to the
        backup server commits at once — so the default is the
        worst-case share of the backup write path across a full
        complement of 40 VMs (110 MB/s / 40 = 2.75 MB/s).  This choice
        makes the 30 s bound, the ~30 s steady-state checkpoint
        interval, and the 35-40 VM backup-server knee of Figure 7
        mutually consistent, as they are in the paper.
    stream_bandwidth_bps:
        Bytes/s the background stream may burst to during normal
        operation (the per-VM throttle; the *average* stream rate is
        set by the interval and is far lower).
    min_interval_s:
        Smallest interval the warning-time ramp may reach.
    ramp_factor:
        Geometric factor by which the interval shrinks per checkpoint
        during the warning period (SpotCheck optimization); 1.0
        disables the ramp (Yank behaviour).
    """

    time_bound_s: float = 30.0
    commit_bandwidth_bps: float = 2.75e6
    stream_bandwidth_bps: float = 12e6
    min_interval_s: float = 0.5
    ramp_factor: float = 0.5

    def __post_init__(self):
        if self.time_bound_s <= 0:
            raise ValueError("time bound must be positive")
        if self.commit_bandwidth_bps <= 0 or self.stream_bandwidth_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.ramp_factor <= 1:
            raise ValueError("ramp_factor must lie in (0, 1]")

    @property
    def dirty_budget_bytes(self):
        """Residual dirty bytes committable within the time bound."""
        return self.time_bound_s * self.commit_bandwidth_bps


class CheckpointStream:
    """The per-VM continuous-checkpointing model.

    Offers both analytic accessors (interval, stream rate, final-commit
    downtime) used by the figure benches, and a DES process used in
    end-to-end micro simulations.
    """

    def __init__(self, memory, config=None):
        self.memory = memory
        self.config = config or CheckpointConfig()

    def interval_s(self):
        """Steady-state checkpoint interval.

        The longest interval whose dirty volume fits the budget, also
        bounded below so the stream rate cannot exceed the throttle.
        A VM dirtying too fast for *any* interval to fit the budget
        (see :meth:`commit_bound_feasible`) checkpoints at the floor —
        best effort; the planners report its state as unsafe.
        """
        cfg = self.config
        try:
            interval = self.memory.interval_for_dirty_bytes(
                cfg.dirty_budget_bytes)
        except DirtyBudgetInfeasible:
            interval = cfg.min_interval_s
        # The flush of one interval's dirty data must itself finish
        # within (roughly) one interval at the throttled stream rate,
        # or checkpoints would queue without bound.
        for _ in range(20):
            flush_time = (self.memory.dirty_bytes(interval)
                          / cfg.stream_bandwidth_bps)
            if flush_time <= interval:
                break
            interval = flush_time
        return max(interval, cfg.min_interval_s)

    def commit_bound_feasible(self):
        """Whether any checkpoint interval honours the commit budget.

        False means the VM dirties more than the budget within 1 ms —
        the time bound is a fiction for this VM and bounded-time plans
        must report ``state_safe=False``.
        """
        try:
            self.memory.interval_for_dirty_bytes(
                self.config.dirty_budget_bytes)
        except DirtyBudgetInfeasible:
            return False
        return True

    def stream_rate_bps(self):
        """Average bytes/s the stream pushes to the backup server."""
        interval = self.interval_s()
        if interval == float("inf"):
            return 0.0
        return self.memory.dirty_bytes(interval) / interval

    def feasible_ramp_interval_s(self):
        """The tightest checkpoint interval the ramp can sustain.

        Ramping to an interval is only feasible if one interval's dirty
        volume can be flushed within the interval at the throttled
        stream rate; a VM that dirties faster than the throttle cannot
        be ramped below the point where the working set saturates.
        """
        cfg = self.config
        steady = self.interval_s()
        interval = cfg.min_interval_s
        while interval < steady:
            if self.memory.dirty_bytes(interval) <= \
                    cfg.stream_bandwidth_bps * interval:
                return interval
            interval *= 1.5
        return steady

    def final_commit_downtime_s(self, ramped=True):
        """VM pause needed to commit the stale state after a warning.

        Without the ramp (Yank), the VM pauses and pushes the residual
        of a full steady-state interval.  With the ramp, checkpoints
        tighten geometrically during the warning, so the final pause
        only covers the dirty volume of the tightest feasible interval.
        """
        cfg = self.config
        if ramped and cfg.ramp_factor < 1.0:
            residual = self.memory.dirty_bytes(self.feasible_ramp_interval_s())
        else:
            residual = self.memory.dirty_bytes(self.interval_s())
        return residual / cfg.commit_bandwidth_bps

    def warning_degradation_s(self, warning_period_s, ramped=True):
        """Seconds of degraded (not down) operation during the warning.

        The ramp trades downtime for degradation: tighter checkpoints
        cost write-protection faults and transfer contention while the
        VM keeps running.  The window is one steady-state interval (the
        time to walk the ramp down), capped by the part of the warning
        not needed for the final commit.
        """
        if not ramped or self.config.ramp_factor >= 1.0:
            return 0.0
        available = max(
            warning_period_s - self.final_commit_downtime_s(ramped=True)
            - 2.0, 0.0)
        return min(available, self.interval_s())

    def ramp_schedule(self, warning_period_s):
        """Checkpoint intervals used during the warning period."""
        cfg = self.config
        schedule = []
        interval = self.interval_s()
        elapsed = 0.0
        while elapsed < warning_period_s and interval > cfg.min_interval_s:
            interval = max(interval * cfg.ramp_factor, cfg.min_interval_s)
            schedule.append(interval)
            elapsed += interval
        return schedule

    def run(self, env, backup_link, stop_event, on_flush=None):
        """DES process: stream checkpoints until ``stop_event`` triggers.

        Each epoch's dirty volume is flushed over ``backup_link`` by a
        *background* transfer (the VM keeps running and dirtying while
        the previous flush drains — that overlap is what makes the
        steady-state stream rate equal ``stream_rate_bps``).
        ``on_flush(bytes)`` is invoked as each flush commits.  The
        process returns the total committed bytes once the stop event
        has fired and all in-flight flushes have drained.
        """
        cfg = self.config
        state = {"flushed": 0.0, "in_flight": [], "rounds": 0}

        def _flush(dirty):
            yield backup_link.transfer(
                dirty, rate_cap=cfg.stream_bandwidth_bps)
            state["flushed"] += dirty
            state["rounds"] += 1
            obs = getattr(env, "obs", None)
            if obs is not None:
                obs.emit("checkpoint.flush", bytes=dirty,
                         round=state["rounds"],
                         total_bytes=state["flushed"])
                obs.metrics.counter("checkpoint_flushes_total").inc()
                obs.metrics.counter("checkpoint_bytes_total").inc(dirty)
            if on_flush is not None:
                on_flush(dirty)

        def _stream():
            while not stop_event.triggered:
                interval = self.interval_s()
                if interval == float("inf"):
                    yield env.any_of([stop_event, env.timeout(3600.0)])
                    continue
                yield env.any_of([stop_event, env.timeout(interval)])
                if stop_event.triggered:
                    break
                dirty = self.memory.dirty_bytes(interval)
                if dirty > 0:
                    state["in_flight"].append(env.process(_flush(dirty)))
            pending = [p for p in state["in_flight"] if p.is_alive]
            if pending:
                yield env.all_of(pending)
            return state["flushed"]

        return env.process(_stream())

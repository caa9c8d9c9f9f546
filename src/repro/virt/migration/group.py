"""Group checkpoint scheduling: one wakeup per cohort, not per VM.

At fleet scale the per-VM steady-state checkpoint processes of
:class:`~repro.virt.migration.checkpoint.CheckpointStream` dominate the
kernel event budget: every VM wakes every interval to arm a flush, so
idle fleet size costs O(VMs) events per interval.  But SpotCheck pools
are *homogeneous* — every nested VM of one (pool, mechanism) runs the
same instance type and workload profile, so their steady-state plans
(interval, dirty volume per round, stream throttle) are identical.

The :class:`GroupCheckpointScheduler` exploits that: members with the
same plan that join at the same instant form a **cohort** sharing one
scheduler process.  The cohort wakes once per interval and issues *one*
aggregated flow (``n x dirty`` bytes at ``n x cap``) through the
fair-share backup datapath.  A round costs O(1) whatever the cohort
size: completing it only flips a flag, and per-member totals are
settled once, at :meth:`~GroupCheckpointScheduler.settle` or
:meth:`~GroupCheckpointScheduler.settle_now`.

Equivalence with per-VM streams is exact by construction:

* cohort wake times reproduce the per-VM loop bit-for-bit — the same
  ``timeout(interval)`` accumulation from the same join instant;
* a member's settled total is a shared fold ``F[k] = F[k-1] + dirty``
  over the rounds completed while it was enrolled — the same
  sequential float additions a per-VM stream's ``flushed += dirty``
  performs;
* a member that leaves is credited the rounds armed before it left,
  in flight or not, once they complete (a per-VM stream drains its
  in-flight flushes after its stop event), and its ``on_flush`` fires
  at settle like everyone else's;
* a member joining mid-interval starts its own cohort at its join
  time, just as a fresh per-VM stream would.

A member's plan is pinned at join.  That loses nothing: a plan is a
pure function of the stream's frozen ``MemoryModel`` and frozen
``CheckpointConfig``, and neither is reassigned after join, so a per-VM
stream re-solving it every round gets the same plan every round.

The aggregated flow matches ``n`` separate flows whenever the cohort's
flows are either capacity-bound together or cap-bound individually
(min(n*cap, C) == n*min(cap, C/n)); under *mixed* contention with
unrelated flows the aggregate carries one fair-share weight instead of
``n``, a deliberate modelling trade documented in docs/performance.md.
"""

from repro.virt.memory import MemoryModel

__all__ = ["GroupCheckpointScheduler"]

_INF = float("inf")

#: Plan cache keyed by (memory, config) — both frozen dataclasses whose
#: plans are pure functions of their fields, so a 100k-VM fleet pays
#: the iterative interval solve once per workload class, not per VM.
#: Only genuine :class:`MemoryModel` instances are cached; a test
#: double is solved once per join, never per round.
_PLAN_CACHE = {}


def _plan_of(stream):
    """The (interval, dirty, cap) steady-state plan of one stream."""
    cacheable = type(stream.memory) is MemoryModel
    if cacheable:
        key = (stream.memory, stream.config)
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            return plan
    interval = stream.interval_s()
    if interval == _INF:
        dirty = 0.0
    else:
        dirty = stream.memory.dirty_bytes(interval)
    plan = (interval, dirty, stream.config.stream_bandwidth_bps)
    if cacheable and len(_PLAN_CACHE) < 4096:
        _PLAN_CACHE[key] = plan
    return plan


class _Cohort:
    """One shared checkpoint loop over members with an identical plan."""

    __slots__ = ("sched", "plan", "members", "stop", "proc", "in_flight",
                 "rounds_armed", "flags", "leavers")

    def __init__(self, sched, plan):
        self.sched = sched
        self.plan = plan
        #: member_id -> on_flush callback (insertion-ordered).
        self.members = {}
        self.stop = sched.env.event()
        self.in_flight = []
        #: Rounds armed with a positive dirty volume.
        self.rounds_armed = 0
        #: Per-round completion flags.
        self.flags = []
        #: member_id -> (rounds_armed at departure, on_flush callback).
        self.leavers = {}
        self.proc = sched.env.process(self._run())

    def _run(self):
        env = self.sched.env
        interval, dirty, _cap = self.plan
        # A parked plan (infinite interval) rechecks hourly, like the
        # per-VM stream.  Pinned at join, it never unparks; the wakes
        # stay because kernel event counts are part of the recorded
        # sharded benchmark digest.
        wake = 3600.0 if interval == _INF else interval
        while self.members and not self.stop.triggered:
            yield env.any_of([self.stop, env.timeout(wake)])
            if self.stop.triggered or not self.members:
                break
            if dirty > 0:
                self._arm_flush(dirty)
        pending = [p for p in self.in_flight if p.is_alive]
        if pending:
            yield env.all_of(pending)

    def _arm_flush(self, dirty):
        sched = self.sched
        env = sched.env
        n = len(self.members)
        cap = self.plan[2]
        round_index = self.rounds_armed
        self.rounds_armed += 1
        sched.flows_issued += 1
        self.flags.append(False)
        # Prune completed flows on every arm: a healthy cohort keeps at
        # most a flush or two in flight (flush time < interval), and a
        # dead process reference would otherwise pin its frame for the
        # cohort's whole life — a slow leak under fleet-length runs.
        if self.in_flight:
            self.in_flight = [p for p in self.in_flight if p.is_alive]

        def _flush():
            yield sched.link.transfer(dirty * n, rate_cap=cap * n)
            self.flags[round_index] = True
            obs = getattr(env, "obs", None)
            if obs is not None:
                obs.emit("checkpoint.group_flush", members=n,
                         bytes=dirty * n, round=round_index + 1)
                obs.metrics.counter("checkpoint_flushes_total").inc(n)
                obs.metrics.counter("checkpoint_bytes_total").inc(dirty * n)

        self.in_flight.append(env.process(_flush()))

    def remove(self, member_id):
        on_flush = self.members.pop(member_id)
        self.leavers[member_id] = (self.rounds_armed, on_flush)
        if not self.members and not self.stop.triggered:
            # Event elision: wake the sleeping loop so an empty cohort
            # exits now instead of at its next interval boundary.
            self.stop.succeed()

    def settle_credits(self):
        """Credit each member, current or departed, its completed rounds."""
        sched = self.sched
        dirty = self.plan[1]
        completed_prefix = [0]
        for flag in self.flags:
            completed_prefix.append(completed_prefix[-1] + (1 if flag else 0))
        # Shared fold cache: F[k] is what k per-round credits of `dirty`
        # accumulate (the per-VM stream's sequential float fold).
        fold = [0.0]
        for _ in range(completed_prefix[-1]):
            fold.append(fold[-1] + dirty)
        enrolled = [(member_id, self.rounds_armed, on_flush)
                    for member_id, on_flush in self.members.items()]
        enrolled.extend((member_id, rounds, on_flush) for member_id,
                        (rounds, on_flush) in self.leavers.items())
        for member_id, rounds, on_flush in enrolled:
            total = fold[completed_prefix[rounds]]
            sched.flushed[member_id] = \
                sched.flushed.get(member_id, 0.0) + total
            if on_flush is not None and total > 0:
                on_flush(total)


class GroupCheckpointScheduler:
    """Batched steady-state checkpointing over one backup datapath.

    Parameters
    ----------
    env:
        Simulation environment.
    backup_link:
        Transfer facade (``.transfer(nbytes, rate_cap=...)`` returning a
        completion event) — a ``FairShareLink`` or a backup server's
        ``ingest``.

    Rounds cost O(1) regardless of cohort size; per-member totals
    (:attr:`flushed`, and each member's ``on_flush``) are settled once,
    by :meth:`settle` or :meth:`settle_now`.
    """

    def __init__(self, env, backup_link):
        self.env = env
        self.link = backup_link
        #: member_id -> cumulative flushed bytes (filled at settle).
        self.flushed = {}
        #: (join_time, plan) -> open cohort.
        self._open = {}
        self._all_cohorts = []
        self._members = {}
        self._settled = False
        self.cohorts_created = 0
        self.flows_issued = 0

    def join(self, member_id, stream, on_flush=None):
        """Enroll a stream; returns the cohort it landed in.

        Members with identical plans joining at the same instant share
        a cohort; everyone else gets their own (exact per-VM mode).
        """
        if member_id in self._members:
            raise ValueError(f"{member_id} already enrolled")
        plan = _plan_of(stream)
        key = (self.env.now, plan)
        cohort = self._open.get(key)
        if cohort is None or cohort.stop.triggered:
            cohort = _Cohort(self, plan)
            self._open[key] = cohort
            self._all_cohorts.append(cohort)
            self.cohorts_created += 1
        cohort.members[member_id] = on_flush
        self._members[member_id] = cohort
        return cohort

    def leave(self, member_id):
        """Drop a member from future rounds.

        Rounds already in flight still credit it (matching a per-VM
        stream draining its in-flight flushes after its stop event);
        its ``on_flush`` receives them at settle.
        """
        cohort = self._members.pop(member_id, None)
        if cohort is not None:
            cohort.remove(member_id)

    def member_count(self):
        return len(self._members)

    def cohort_of(self, member_id):
        return self._members.get(member_id)

    def settle(self):
        """Process: stop all cohorts, drain flows, finalize credits.

        Returns the ``{member_id: flushed_bytes}`` dict (also available
        as :attr:`flushed` afterwards).
        """
        if self._settled:
            return self.flushed
        self._settled = True
        procs = []
        for cohort in self._all_cohorts:
            if not cohort.stop.triggered:
                cohort.stop.succeed()
            if cohort.proc.is_alive:
                procs.append(cohort.proc)
        if procs:
            yield self.env.all_of(procs)
        for cohort in self._all_cohorts:
            cohort.settle_credits()
        return self.flushed

    def settle_now(self):
        """Synchronous settle for non-process callers (finalize).

        Stops every cohort and finalizes credits from the rounds that
        have *already completed* — in-flight flows stay uncredited,
        exactly as a per-VM stream's in-flight flush is uncredited at
        the measurement horizon.  Returns the totals dict.
        """
        if self._settled:
            return self.flushed
        self._settled = True
        for cohort in self._all_cohorts:
            if not cohort.stop.triggered:
                cohort.stop.succeed()
        for cohort in self._all_cohorts:
            cohort.settle_credits()
        return self.flushed

    def stats(self):
        """Counters mirroring ``SpotMarket.drive_stats``'s shape."""
        active = sum(1 for c in self._all_cohorts if c.proc.is_alive)
        return {
            "cohorts_created": self.cohorts_created,
            "cohorts_active": active,
            "members": len(self._members),
            "flows_issued": self.flows_issued,
        }

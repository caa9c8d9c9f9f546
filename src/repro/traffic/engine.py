"""The open-loop traffic engine: fleet chaos as per-customer SLAs.

The engine overlays each customer's arrival pattern on their live VM
fleet *while the simulation runs*, without one kernel event per
request.  Following the spot-market drive's event-elision discipline
(PR 5), it wakes only at **condition boundaries**:

* **VM state changes** cost no kernel events at all — the engine
  registers a listener on every tracked VM and batch-accounts the
  elapsed segment inline, under the *old* state, the moment the
  transition happens;
* **fleet membership changes** (a VM granted or relinquished) likewise
  flush inline through a customer listener;
* **pattern breakpoints** (flash-crowd corners), **SLO window edges**,
  and **reporting epochs** are the only wake-ups the engine schedules,
  via exact absolute-time timeouts.

Between boundaries nothing happens: request *counts* come from the
patterns' closed-form interval integrals, and latency mass from the
ledgers' closed-form lognormal buckets.  Kernel event count is
O(breakpoints + epochs + windows), and accounting work is O(segments x
fleet size) — both independent of request volume, so two million users
cost exactly what twenty do (asserted in
``tests/traffic/test_engine.py``).
"""

from dataclasses import dataclass, field

from repro.traffic.patterns import ConstantRate, RatePattern
from repro.traffic.sla import SlaLedger, SlaTarget
from repro.virt.vm import VMState
from repro.workloads.requests import conditions_for_state
from repro.workloads.tpcw import TpcwWorkload


@dataclass(frozen=True)
class CustomerTraffic:
    """One customer's traffic contract: a pattern and an SLO.

    ``weight`` sizes the customer's share of a scenario fleet (see
    :class:`TrafficMix`); ``latency_cov`` the spread of the
    per-condition lognormal.
    """

    name: str = "customer"
    pattern: RatePattern = field(default_factory=ConstantRate)
    sla: SlaTarget = field(default_factory=SlaTarget)
    weight: float = 1.0
    latency_cov: float = 0.35

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class TrafficMix:
    """A scenario's customer population (carried by ScenarioConfig)."""

    groups: tuple = ()
    report_interval_s: float = 3600.0

    def __post_init__(self):
        if not all(isinstance(g, CustomerTraffic) for g in self.groups):
            raise TypeError("groups must be CustomerTraffic instances")
        if self.report_interval_s <= 0:
            raise ValueError("report_interval_s must be positive")

    def allocate_vms(self, total):
        """Deterministic largest-remainder split of ``total`` VMs.

        Every group gets at least one VM; remainders go to the
        heaviest groups first (ties broken by declaration order).
        """
        if not self.groups:
            raise ValueError("traffic mix has no customer groups")
        if total < len(self.groups):
            raise ValueError(
                f"{total} VMs cannot cover {len(self.groups)} customers")
        weights = [group.weight for group in self.groups]
        scale = (total - len(self.groups)) / sum(weights)
        counts = [1 + int(weight * scale) for weight in weights]
        remainders = [weight * scale - int(weight * scale)
                      for weight in weights]
        order = sorted(range(len(self.groups)),
                       key=lambda i: (-remainders[i], i))
        for i in order[:total - sum(counts)]:
            counts[i] += 1
        return counts


class _Watch:
    """Per-customer engine state: tracked VMs and the ledger."""

    __slots__ = ("customer", "traffic", "ledger", "vms", "last",
                 "window_end")

    def __init__(self, customer, traffic, ledger):
        self.customer = customer
        self.traffic = traffic
        self.ledger = ledger
        self.vms = {}
        self.last = None
        self.window_end = None


class TrafficEngine:
    """Batch-accounts open-loop traffic over customers' VM fleets.

    Usage::

        engine = TrafficEngine(env, obs=obs)
        engine.watch(customer, CustomerTraffic("web", pattern, sla))
        engine.start(until=duration_s)   # after the fleet is up
        env.run(until=duration_s)
        report = engine.report()

    ``watch`` may be called before the customer has any VMs; the
    engine tracks grants and relinquishes through customer listeners.
    Accounting begins at :meth:`start` (requests before it are not
    scored), and every ledger is final once the engine's process
    reaches ``until`` (or :meth:`finalize` is called early).
    """

    def __init__(self, env, obs=None, report_interval_s=3600.0,
                 checkpointing_while_running=True):
        if report_interval_s <= 0:
            raise ValueError("report_interval_s must be positive")
        self.env = env
        self.obs = obs
        self.report_interval_s = report_interval_s
        self.checkpointing_while_running = checkpointing_while_running
        self._watches = {}
        self._started = False
        self._finalized = False
        self.started_at = None
        self.until = None
        self._fallback_workload = TpcwWorkload()
        self.stats = {
            "wakes": 0,
            "breakpoint_wakes": 0,
            "report_wakes": 0,
            "window_rolls": 0,
            "state_flushes": 0,
            "membership_flushes": 0,
            "segments": 0,
            "requests": 0.0,
        }

    # -- registration ---------------------------------------------------

    def watch(self, customer, traffic):
        """Track ``customer`` under the ``traffic`` contract."""
        if customer.id in self._watches:
            raise ValueError(f"{customer.id} is already watched")
        ledger = SlaLedger(traffic.name, traffic.sla, obs=self.obs,
                           latency_cov=traffic.latency_cov)
        watch = _Watch(customer, traffic, ledger)
        self._watches[customer.id] = watch
        for vm in customer.vms:
            self._track_vm(watch, vm)
        customer.on_vm_change(self._on_membership)
        return ledger

    def _track_vm(self, watch, vm):
        watch.vms[vm.id] = vm
        vm.on_state_change(self._on_vm_state)

    # -- inline boundaries (no kernel events) ---------------------------

    def _on_membership(self, customer, vm, added):
        watch = self._watches.get(customer.id)
        if watch is None:
            return
        if self._started and not self._finalized:
            self._flush_watch(watch, self.env.now)
            self.stats["membership_flushes"] += 1
        if added:
            if vm.id not in watch.vms:
                self._track_vm(watch, vm)
        else:
            watch.vms.pop(vm.id, None)

    def _on_vm_state(self, vm, old_state, new_state):
        customer = vm.customer
        if customer is None:
            return
        watch = self._watches.get(customer.id)
        if watch is None or vm.id not in watch.vms:
            return
        if self._started and not self._finalized:
            # The elapsed segment ran under the *old* state.
            self._flush_watch(watch, self.env.now,
                              override_vm=vm, override_state=old_state)
            self.stats["state_flushes"] += 1

    # -- batch accounting ----------------------------------------------

    def _flush_watch(self, watch, now, override_vm=None,
                     override_state=None):
        """Account every request that arrived in ``[watch.last, now)``.

        The engine flushes at every boundary, so each VM held one
        state for the whole segment (``override_state`` supplies the
        pre-transition state when the flush *is* the transition).
        Durations are capacity-weighted: each VM's share of the
        segment is ``duration / fleet_size``, so a customer's
        ``down_s`` reads as lost capacity-seconds.
        """
        last = watch.last
        if last is None or now <= last:
            return
        requests = watch.traffic.pattern.requests_between(last, now)
        self.stats["requests"] += requests
        ledger = watch.ledger
        vms = watch.vms
        if not vms:
            # No capacity at all: every arrival fails.
            ledger.account_down(last, now, requests)
            self.stats["segments"] += 1
            watch.last = now
            return
        share = requests / len(vms)
        span = (now - last) / len(vms)
        for vm in vms.values():
            state = override_state if vm is override_vm else vm.state
            conditions = conditions_for_state(
                state, self.checkpointing_while_running)
            if conditions is None:
                ledger.account_down(last, last + span, share)
            else:
                workload = vm.workload
                if workload is None or \
                        not hasattr(workload, "response_time_ms"):
                    workload = self._fallback_workload
                ledger.account_latency(
                    last, last + span, share,
                    workload.response_time_ms(conditions),
                    degraded=state is not VMState.RUNNING)
        self.stats["segments"] += len(vms)
        watch.last = now

    def _flush_all(self, now):
        for watch in self._watches.values():
            self._flush_watch(watch, now)

    # -- the wake schedule ----------------------------------------------

    def start(self, until):
        """Begin accounting now; returns the engine's sim process."""
        if self._started:
            raise ValueError("traffic engine already started")
        if not self._watches:
            raise ValueError("no customers watched")
        now = self.env.now
        if until <= now:
            raise ValueError(f"until={until} is not in the future")
        self._started = True
        self.started_at = now
        self.until = until
        for watch in self._watches.values():
            watch.last = now
            self._open_window(watch, now)
        self._breakpoints = sorted(
            {bp for watch in self._watches.values()
             for bp in watch.traffic.pattern.breakpoints()
             if now < bp < until})
        return self.env.process(self._run())

    def _open_window(self, watch, start):
        end = min(start + watch.traffic.sla.window_s, self.until)
        watch.window_end = end
        watch.ledger.begin_window(
            start, end, watch.traffic.pattern.requests_between(start, end))

    def _run(self):
        env = self.env
        breakpoints = self._breakpoints
        bp_index = 0
        next_report = min(self.started_at + self.report_interval_s,
                          self.until)
        while True:
            target = min(next_report, self.until)
            if bp_index < len(breakpoints):
                target = min(target, breakpoints[bp_index])
            for watch in self._watches.values():
                target = min(target, watch.window_end)
            if target > env.now:
                yield env.timeout_at(target)
                self.stats["wakes"] += 1
            now = env.now
            self._flush_all(now)
            while bp_index < len(breakpoints) and \
                    breakpoints[bp_index] <= now:
                bp_index += 1
                self.stats["breakpoint_wakes"] += 1
            for watch in self._watches.values():
                if now >= watch.window_end and now < self.until:
                    self._roll_window(watch, now)
            if now >= next_report:
                self._report(now)
                self.stats["report_wakes"] += 1
                next_report = min(next_report + self.report_interval_s,
                                  self.until) if next_report < self.until \
                    else self.until + 1.0
            if now >= self.until:
                self.finalize()
                return

    def _roll_window(self, watch, now):
        self._close_window(watch)
        self._open_window(watch, watch.window_end)

    def _close_window(self, watch):
        record = watch.ledger.roll_window()
        self.stats["window_rolls"] += 1
        obs = self.obs
        if obs is not None:
            obs.emit("sla.window", customer=watch.traffic.name,
                     window=record["index"], requests=record["requests"],
                     bad=record["bad"], burn=record["burn"],
                     breached=record["breached"])

    def _report(self, now):
        obs = self.obs
        if obs is None:
            return
        for watch in self._watches.values():
            ledger = watch.ledger
            obs.emit("sla.report", customer=watch.traffic.name,
                     requests=ledger.total_requests,
                     attainment=ledger.attainment,
                     error_rate=ledger.error_rate,
                     burn=ledger.window_burn)
            obs.metrics.gauge(
                "sla_attainment",
                customer=watch.traffic.name).set(ledger.attainment)

    def finalize(self, now=None):
        """Flush to ``now`` and close the partial windows (idempotent)."""
        if self._finalized or not self._started:
            return
        self._finalized = True
        now = self.env.now if now is None else now
        self._flush_all(now)
        for watch in self._watches.values():
            self._close_window(watch)
        self._report(now)

    # -- reporting ------------------------------------------------------

    def ledger(self, name):
        """The ledger of the customer traffic named ``name``."""
        for watch in self._watches.values():
            if watch.traffic.name == name:
                return watch.ledger
        raise KeyError(name)

    def report(self):
        """{traffic name: ledger snapshot} for every watched customer."""
        return {watch.traffic.name: watch.ledger.snapshot()
                for watch in self._watches.values()}

    def drive_stats(self):
        """Kernel-event and batching counters (see the microbench)."""
        return dict(self.stats)

"""Cost, availability, and storm accounting (Section 4.4).

The ledger records three event families during a simulation —

* nested-VM lifetimes,
* per-migration disruption (downtime and degraded seconds, with the
  cause and mechanism), and
* revocation events (how many VMs one market crossing displaced at
  once, and how they were spread over backup servers) —

and reduces them to the metrics of the paper's evaluation: average
cost per VM-hour (Figure 10), unavailability percentage (Figure 11),
performance-degradation percentage (Figure 12), and the
concurrent-revocation probabilities of Table 3.
"""

from dataclasses import dataclass, field

from repro.cloud.instances import Market


@dataclass
class MigrationRecord:
    """One nested-VM migration's disruption."""

    when: float
    vm_id: str
    cause: str  # "revocation" | "proactive" | "return-to-spot" | "rebalance"
    mechanism: str  # "live" | "bounded-full" | "bounded-lazy"
    downtime_s: float
    degraded_s: float
    source_pool: tuple
    dest_pool: tuple
    concurrent: int = 1
    state_safe: bool = True
    #: Table 1 decomposition of the downtime: phase name -> seconds.
    #: When present, the phase durations sum to ``downtime_s``.
    phases: dict = field(default_factory=dict)


@dataclass
class RevocationEvent:
    """One market crossing: the storm it caused."""

    when: float
    pool_key: tuple
    hosts_lost: int
    vms_displaced: int
    #: backup server id -> VMs it had to restore concurrently.
    backup_load: dict = field(default_factory=dict)


@dataclass(slots=True)
class VmLifetime:
    vm_id: str
    start: float
    end: float = None


class AccountingLedger:
    """Event log + metric reduction for one simulation run."""

    def __init__(self, env):
        self.env = env
        self.migrations = []
        self.revocations = []
        self.lifetimes = {}
        #: Extra dollar costs not metered by the cloud billing ledger
        #: (backup servers billed directly), as (label, dollars).
        self.extra_costs = []
        self._finalized_at = None

    # -- recording -------------------------------------------------------

    def vm_created(self, vm):
        self.lifetimes[vm.id] = VmLifetime(vm_id=vm.id, start=self.env.now)

    def vm_terminated(self, vm):
        record = self.lifetimes.get(vm.id)
        if record is not None and record.end is None:
            record.end = self.env.now

    def record_migration(self, **kwargs):
        self.migrations.append(MigrationRecord(when=self.env.now, **kwargs))

    def record_revocation(self, pool_key, hosts_lost, vms_displaced,
                          backup_load=None):
        self.revocations.append(RevocationEvent(
            when=self.env.now, pool_key=pool_key, hosts_lost=hosts_lost,
            vms_displaced=vms_displaced, backup_load=dict(backup_load or {})))

    def add_cost(self, label, dollars):
        self.extra_costs.append((label, float(dollars)))

    def finalize(self, when=None):
        """Close all open lifetimes at ``when`` (default: now)."""
        self._finalized_at = self.env.now if when is None else when
        for record in self.lifetimes.values():
            if record.end is None:
                record.end = self._finalized_at

    # -- reductions --------------------------------------------------------

    def total_vm_seconds(self):
        end_default = self._finalized_at if self._finalized_at is not None \
            else self.env.now
        return sum(
            (r.end if r.end is not None else end_default) - r.start
            for r in self.lifetimes.values())

    def total_downtime_s(self):
        return sum(m.downtime_s for m in self.migrations)

    def total_degraded_s(self):
        return sum(m.degraded_s for m in self.migrations)

    def unavailability(self):
        """Fraction of VM lifetime spent down (Figure 11's metric)."""
        return _share(self.total_downtime_s(), self.total_vm_seconds())

    def availability(self):
        return 1.0 - self.unavailability()

    def degradation(self):
        """Fraction of VM lifetime spent degraded (Figure 12's metric)."""
        return _share(self.total_degraded_s(), self.total_vm_seconds())

    def state_loss_events(self):
        """Migrations that lost VM state (must be empty for SpotCheck)."""
        return [m for m in self.migrations if not m.state_safe]

    def migration_count(self, cause=None):
        if cause is None:
            return len(self.migrations)
        return sum(1 for m in self.migrations if m.cause == cause)

    def phase_totals(self):
        """Aggregate seconds of downtime by Table 1 phase name."""
        totals = {}
        for migration in self.migrations:
            for phase, seconds in migration.phases.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    # -- cost -----------------------------------------------------------

    def _open_accruals(self, api):
        """Dollars accrued to now by each open record, by instance id.

        Built in ``api.instances`` order, so the cost sums below add the
        same terms in the same order as one pass per sum would.  A spot
        record's accrual is a pure function of its (market, start, now)
        window, so records sharing a window (a bulk boot's hosts) are
        integrated once.
        """
        billing = api.billing
        accruals = {}
        windows = {}
        for instance in api.instances.values():
            record = billing.records.get(instance.id)
            if record is None or record.end is not None:
                continue
            if instance.is_spot:
                market = api.marketplace.market(instance.itype, instance.zone)
                window = (market, record.market, record.start)
                dollars = windows.get(window)
                if dollars is None:
                    dollars = windows[window] = billing.accrued_cost(
                        instance, market)
            else:
                dollars = billing.accrued_cost(instance)
            accruals[instance.id] = dollars
        return accruals

    def total_cost(self, api, include_open=True):
        """All dollars spent: native instances + extra (backup) costs."""
        return self._total_cost(
            api, self._open_accruals(api) if include_open else None)

    def _total_cost(self, api, accruals):
        total = api.billing.total_cost()
        if accruals is not None:
            for dollars in accruals.values():
                total += dollars
        total += sum(dollars for _label, dollars in self.extra_costs)
        return total

    def totals(self, api):
        """Every sum and share the reports need, each reduced once.

        Accrues each open record once; every value is bit-identical to
        its per-metric method's.
        """
        vm_seconds = self.total_vm_seconds()
        downtime_s = self.total_downtime_s()
        degraded_s = self.total_degraded_s()
        accruals = self._open_accruals(api)
        return {
            "vm_seconds": vm_seconds,
            "downtime_s": downtime_s,
            "degraded_s": degraded_s,
            "total_cost": self._total_cost(api, accruals),
            "cost_breakdown": self._cost_breakdown(api, accruals),
            "unavailability": _share(downtime_s, vm_seconds),
            "degradation": _share(degraded_s, vm_seconds),
        }

    def cost_per_vm_hour(self, api):
        """Average cost per nested-VM hour (Figure 10's metric)."""
        return _per_hour(self.total_cost(api), self.total_vm_seconds())

    def cost_breakdown(self, api, include_open=True):
        """Dollars by source: spot, on-demand, backup/extra.

        Open records (instances still running) accrue to "now", so the
        breakdown always sums to :meth:`total_cost`.
        """
        return self._cost_breakdown(
            api, self._open_accruals(api) if include_open else None)

    def _cost_breakdown(self, api, accruals):
        totals = {Market.SPOT: 0.0, Market.ON_DEMAND: 0.0}
        for instance_id, record in api.billing.records.items():
            if record.end is not None:
                totals[record.market] += record.cost
            elif accruals is not None:
                source = Market.SPOT if api.instances[instance_id].is_spot \
                    else Market.ON_DEMAND
                totals[source] += accruals[instance_id]
        extra = sum(dollars for _label, dollars in self.extra_costs)
        return {"spot": totals[Market.SPOT],
                "on-demand": totals[Market.ON_DEMAND],
                "backup": extra}

    # -- storms (Table 3) -------------------------------------------------

    def storm_histogram(self, total_vms, buckets=(0.25, 0.5, 0.75, 1.0)):
        """Probability of concurrent revocations by size bucket.

        For each bucket fraction b, estimates the per-hour probability
        that a revocation event displaced at least ``b * total_vms``
        VMs concurrently (but less than the next bucket) — the Table 3
        quantity.  Returns ``{fraction: probability}``.
        """
        if total_vms <= 0:
            raise ValueError("total_vms must be positive")
        horizon_s = (self._finalized_at if self._finalized_at is not None
                     else self.env.now)
        hours = max(horizon_s / 3600.0, 1e-9)
        edges = sorted(buckets)
        histogram = {b: 0 for b in edges}
        for event in self.revocations:
            fraction = event.vms_displaced / total_vms
            bucket = None
            for edge in edges:
                if fraction >= edge - 1e-12:
                    bucket = edge
            if bucket is not None:
                histogram[bucket] += 1
        return {bucket: count / hours
                for bucket, count in histogram.items()}

    def max_concurrent_revocation(self):
        """Largest single-event displacement observed."""
        if not self.revocations:
            return 0
        return max(event.vms_displaced for event in self.revocations)

    def summary(self, api, total_vms=None):
        """One-dictionary report used by the benches (from :meth:`totals`)."""
        totals = self.totals(api)
        vm_seconds = totals["vm_seconds"]
        report = {
            "vm_hours": vm_seconds / 3600.0,
            "cost_per_vm_hour": _per_hour(totals["total_cost"], vm_seconds),
            "availability": 1.0 - totals["unavailability"],
            "unavailability_pct": 100.0 * totals["unavailability"],
            "degradation_pct": 100.0 * totals["degradation"],
            "migrations": len(self.migrations),
            "revocation_events": len(self.revocations),
            "state_loss_events": len(self.state_loss_events()),
            "cost_breakdown": totals["cost_breakdown"],
        }
        if total_vms:
            report["storm_histogram"] = self.storm_histogram(total_vms)
            report["max_concurrent_revocation"] = \
                self.max_concurrent_revocation()
        return report


def _share(seconds, vm_seconds):
    """``seconds`` as a fraction of all VM lifetime (0 with none)."""
    return seconds / vm_seconds if vm_seconds else 0.0


def _per_hour(dollars, vm_seconds):
    """``dollars`` per nested-VM hour (0 with no VM lifetime)."""
    vm_hours = vm_seconds / 3600.0
    if vm_hours == 0:
        return 0.0
    return dollars / vm_hours

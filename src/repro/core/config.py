"""Controller configuration."""

from dataclasses import dataclass, field

from repro.backup.server import BackupServerSpec
from repro.faults.retry import RetryPolicy
from repro.virt.migration.bounded import BoundedMigrationConfig


@dataclass
class SpotCheckConfig:
    """All the knobs of a SpotCheck deployment.

    Attributes
    ----------
    allocation_policy:
        Customer-to-pool mapping policy name (Table 2): ``"1P-M"``,
        ``"2P-ML"``, ``"4P-ED"``, ``"4P-COST"``, ``"4P-ST"`` — or
        ``"greedy"`` / ``"stability"`` for the Section 4.2 placement
        strategies that pick the currently cheapest / most stable
        market, with slicing.
    bid_policy:
        ``"on-demand"`` bids exactly the on-demand price; ``"multiple"``
        bids ``bid_multiple`` times it.
    bid_multiple:
        k for the k-times-on-demand bid policy.
    knee_floor_fraction:
        The ``"knee"`` bid policy's thrash floor: never bid below this
        fraction of the on-demand price, even when the availability
        knee of a quiet market sits lower.
    portfolio:
        Optional keyword overrides for the IT/OC portfolio allocation
        family (``target_ratio``, ``band_fraction``, ``top_k``,
        ``migration_budget``, ...); ignored for other policies.
    mechanism:
        Migration mechanism variant (the four bars of Figures 10-12).
    live_migration_only:
        Model the paper's impractical "Xen live migration" baseline: no
        backup servers; revocations handled by an in-warning live
        migration that risks state loss.
    backup_spec:
        Backup-server capacity model.
    vms_per_backup:
        Assignment cap per backup server (the paper uses 35-40); a
        server never takes more than its ``max_checkpoint_vms``.
    hot_spares:
        Number of idle on-demand hosts kept as immediate migration
        destinations (0 disables; acquisition is then lazy).
    use_staging:
        Whether free slots in other pools may stage displaced VMs while
        a final destination starts.
    proactive_migration:
        Live-migrate off a spot pool as soon as its price exceeds the
        on-demand price but is still below the bid (only meaningful
        with ``bid_policy="multiple"``).
    predictive_migration:
        Live-migrate off a spot pool when the price *trend* predicts an
        imminent bid crossing (EWMA level/momentum predictor, Section
        3.2's "predictive approaches").  Works with any bid policy;
        false positives cost extra migrations, false negatives fall
        back to the bounded-time path, so state is never at risk.
    prediction_level_fraction / prediction_jump_factor:
        Tuning of the revocation predictor (see
        :class:`~repro.core.policies.prediction.RevocationPredictor`).
    slicing:
        Whether large native instances may be sliced into several
        nested VMs when that is cheaper per slot.
    return_to_spot:
        Whether VMs parked on on-demand servers migrate back once the
        spot price drops below the on-demand price again.
    return_holddown_s:
        How long the spot price must stay below the on-demand price
        before a return migration is triggered (hysteresis against
        flapping around a spike's edges).
    live_safety_factor:
        Fraction of the warning period a live migration plan must fit
        inside before SpotCheck trusts it for a revocation (small-VM
        exception, Section 3.5).
    live_migration_bps:
        Conservative bandwidth assumed for live migration planning.
    retry:
        :class:`~repro.faults.retry.RetryPolicy` governing every
        control-plane retry: placement attempts, transient API errors,
        and the deadline-aware revocation-path detaches.
    steady_checkpoint_flush:
        Run the steady-state checkpoint streams of every backed-up VM
        as DES flows through the group checkpoint scheduler (one
        cohort wakeup per shared interval, aggregated flows on the
        backup datapath).  Off by default: the scenario goldens
        predate steady flush simulation and price only final commits,
        so enabling it is an explicit opt-in for fleet cells.
        The scheduler credits rounds O(1) each and settles per-VM
        totals once, at finalize.
    defer_flush_accounting:
        Accepted and ignored.  It used to choose between eager
        per-round crediting and settling at finalize; settling at
        finalize is now the only mode, and the recorded fleet digests
        are unchanged.
    soa_checkpoint_flush:
        Accepted and ignored.  It used to select a struct-of-arrays
        checkpoint core that has been retired: the group checkpoint
        scheduler now serves every fleet, homogeneous or mixed, and
        the recorded fleet digests are unchanged.

    Both ignored fields stay only because the benchmark workloads in
    ``perfbench/`` still pass them; they go with the next change to
    that benchmark.
    """

    allocation_policy: str = "1P-M"
    bid_policy: str = "on-demand"
    bid_multiple: float = 1.5
    knee_floor_fraction: float = 0.3
    portfolio: dict = None
    mechanism: BoundedMigrationConfig = field(
        default_factory=BoundedMigrationConfig.spotcheck_lazy)
    live_migration_only: bool = False
    backup_spec: BackupServerSpec = field(default_factory=BackupServerSpec)
    vms_per_backup: int = 40
    hot_spares: int = 0
    use_staging: bool = False
    proactive_migration: bool = False
    predictive_migration: bool = False
    prediction_level_fraction: float = 0.75
    prediction_jump_factor: float = 2.0
    slicing: bool = True
    return_to_spot: bool = True
    return_holddown_s: float = 600.0
    live_safety_factor: float = 0.5
    live_migration_bps: float = 22e6
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    steady_checkpoint_flush: bool = False
    defer_flush_accounting: bool = False
    soa_checkpoint_flush: bool = False

    def __post_init__(self):
        if self.bid_policy not in ("on-demand", "multiple", "knee"):
            raise ValueError(f"unknown bid policy {self.bid_policy!r}")
        if self.bid_multiple < 1.0:
            raise ValueError("bid_multiple must be at least 1")
        if not 0 < self.knee_floor_fraction <= 1:
            raise ValueError("knee_floor_fraction must lie in (0, 1]")
        if self.vms_per_backup < 1:
            raise ValueError("vms_per_backup must be at least 1")
        if self.hot_spares < 0:
            raise ValueError("hot_spares must be non-negative")
        if not 0 < self.live_safety_factor <= 1:
            raise ValueError("live_safety_factor must lie in (0, 1]")
        if self.proactive_migration and self.bid_policy != "multiple":
            raise ValueError(
                "proactive migration requires the k-times-on-demand bid "
                "policy (with bid == on-demand there is no price band to "
                "react inside)")

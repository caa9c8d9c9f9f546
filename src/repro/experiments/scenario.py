"""The trace-driven policy simulation behind Figures 10-12 and Table 3.

One :class:`PolicySimulation` builds the whole stack — environment,
native cloud, six months of synthetic m3 price traces, SpotCheck
controller with a chosen (allocation policy, migration mechanism) — and
runs a fixed fleet of nested VMs through it, returning the accounting
summary.  The paper's grid is 5 policies x 4 mechanisms over the same
six-month price history; we reuse one trace archive per seed so every
cell of the grid sees identical prices.
"""

from dataclasses import dataclass, field, replace

from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.faults import FaultPlan
from repro.sim.kernel import Environment
from repro.traces.archive import TraceArchive
from repro.traces.calibration import M3_MARKET_PARAMS
from repro.traces.generator import TraceGenerator
from repro.virt.migration.bounded import BoundedMigrationConfig
from repro.workloads import SpecJbbWorkload, TpcwWorkload

#: The four mechanism variants of Figures 10-12, in plot order.
MECHANISMS = (
    "xen-live",
    "unoptimized-full",
    "spotcheck-full",
    "spotcheck-lazy",
)

#: The five Table 2 policies, in plot order.
POLICIES = ("1P-M", "2P-ML", "4P-ED", "4P-COST", "4P-ST")


def mechanism_config(name):
    """Map a Figure 10-12 legend entry onto controller settings.

    Returns ``(BoundedMigrationConfig | None, live_only: bool)``.
    """
    if name == "xen-live":
        return BoundedMigrationConfig.spotcheck_lazy(), True
    if name == "unoptimized-full":
        return BoundedMigrationConfig.yank_baseline(), False
    if name == "spotcheck-full":
        return BoundedMigrationConfig.spotcheck_full(), False
    if name == "unoptimized-lazy":
        return BoundedMigrationConfig.unoptimized_lazy(), False
    if name == "spotcheck-lazy":
        return BoundedMigrationConfig.spotcheck_lazy(), False
    raise ValueError(f"unknown mechanism {name!r}")


@dataclass
class ScenarioConfig:
    """Parameters of one policy-simulation run."""

    policy: str = "1P-M"
    mechanism: str = "spotcheck-lazy"
    seed: int = 11
    days: float = 183.0
    vms: int = 40
    workload: str = "tpcw"
    bid_policy: str = "on-demand"
    bid_multiple: float = 1.5
    hot_spares: int = 0
    use_staging: bool = False
    proactive: bool = False
    predictive: bool = False
    slicing: bool = True
    zones: int = 1
    vms_per_backup: int = 40
    #: Optional keyword overrides for the IT/OC portfolio allocation
    #: family (``target_ratio``, ``band_fraction``, ``top_k``, ...);
    #: ignored for other policies.
    portfolio: dict = None
    market_params: dict = field(default_factory=lambda: dict(M3_MARKET_PARAMS))
    #: Optional :class:`~repro.faults.FaultPlan`.  ``None`` (or a plan
    #: with everything zeroed) runs the platform fault-free and
    #: bit-identical to a build without the fault layer.
    faults: FaultPlan = None
    #: Optional :class:`~repro.traffic.engine.TrafficMix`.  When set,
    #: the fleet is split into one customer per traffic group
    #: (largest-remainder by weight), a TrafficEngine scores each
    #: group's SLA live, and the summary gains an ``"sla"`` section.
    #: ``None`` keeps the single-customer fleet bit-identical to a
    #: build without the traffic layer.
    traffic: object = None

    @property
    def duration_s(self):
        return self.days * 24 * 3600.0


def make_workload(name):
    if name == "tpcw":
        return TpcwWorkload()
    if name == "specjbb":
        return SpecJbbWorkload()
    raise ValueError(f"unknown workload {name!r}")


class PolicySimulation:
    """Builds and runs one cell of the policy/mechanism grid."""

    def __init__(self, config=None, archive=None):
        self.config = config or ScenarioConfig()
        self._archive = archive

    @staticmethod
    def build_archive(seed, duration_s, market_params=None, zones=1):
        """m3 traces for one seed (shared across a grid), per zone."""
        params = market_params or M3_MARKET_PARAMS
        generator = TraceGenerator(seed=seed)
        region = default_region(zones)
        archive = TraceArchive()
        for zone in region.zones:
            for type_name, market in sorted(params.items()):
                archive.add(generator.generate_market(
                    type_name, zone.name, market, duration_s=duration_s))
        return archive

    def run(self, return_controller=False, obs=None, probes=()):
        """Execute the scenario; returns the accounting summary dict.

        With ``return_controller=True``, returns
        ``(summary, controller)`` so callers can inspect per-VM state
        (e.g. request-level SLA analysis over the VM state logs).
        With ``obs`` (a :class:`repro.obs.Observability`), the run is
        instrumented: events, metrics, and migration traces accumulate
        on the facade for the caller to export.  ``probes`` are
        callables ``probe(env, controller)`` invoked after the fleet
        is up and before the main horizon runs — samplers register
        their own processes there (the cost-variance study's hourly
        fleet-rate sampler rides on this).
        """
        cfg = self.config
        env = Environment(seed=cfg.seed, obs=obs)
        archive = self._archive
        if archive is None:
            archive = self.build_archive(
                cfg.seed, cfg.duration_s, cfg.market_params,
                zones=cfg.zones)

        mech, live_only = mechanism_config(cfg.mechanism)
        controller_config = SpotCheckConfig(
            allocation_policy=cfg.policy,
            bid_policy=cfg.bid_policy,
            bid_multiple=cfg.bid_multiple,
            mechanism=mech,
            live_migration_only=live_only,
            hot_spares=cfg.hot_spares,
            use_staging=cfg.use_staging,
            proactive_migration=cfg.proactive,
            predictive_migration=cfg.predictive,
            slicing=cfg.slicing,
            vms_per_backup=cfg.vms_per_backup,
            portfolio=cfg.portfolio,
        )
        controller = SpotCheckController.deploy(
            env, default_region(cfg.zones), archive, controller_config,
            faults=cfg.faults)
        injector = controller.api.faults

        engine = None
        if cfg.traffic is not None:
            from repro.traffic import TrafficEngine
            engine = TrafficEngine(
                env, obs=obs,
                report_interval_s=cfg.traffic.report_interval_s)
            controller.traffic = engine

        def _fleet():
            if cfg.traffic is None:
                groups = [(None, "fleet", cfg.vms)]
            else:
                counts = cfg.traffic.allocate_vms(cfg.vms)
                groups = [(group, group.name, count) for group, count
                          in zip(cfg.traffic.groups, counts)]
            for group, name, count in groups:
                customer = controller.start_customer(name, traffic=group)
                for _ in range(count):
                    yield controller.request_server(
                        customer, workload=make_workload(cfg.workload))

        env.run(until=env.process(_fleet()))
        if engine is not None:
            # SLA windows anchor at fleet-ready time: boot-time churn
            # is provisioning, not broken promises to live traffic.
            engine.start(until=cfg.duration_s)
        for probe in probes:
            probe(env, controller)
        env.run(until=cfg.duration_s)
        controller.finalize()
        summary = controller.summary(total_vms=cfg.vms)
        summary["policy"] = cfg.policy
        summary["mechanism"] = cfg.mechanism
        summary["backup_servers"] = controller.backup_pool.server_count
        if injector is not None:
            # Only under injection, so fault-free summaries stay
            # bit-identical to a build without the fault layer.
            summary["faults_injected"] = injector.total_injected
            summary["faults_by_kind"] = dict(injector.counts)
        if engine is not None:
            summary["sla"] = engine.report()
            summary["traffic_drive"] = engine.drive_stats()
        if return_controller:
            return summary, controller
        return summary

    def variant(self, **overrides):
        """A copy of this scenario with fields replaced."""
        return PolicySimulation(
            replace(self.config, **overrides), archive=self._archive)

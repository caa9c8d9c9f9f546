"""One (type, zone) market as an isolated, relocatable simulation.

The unit of sharding is the *market*, not the process: each
:class:`MarketSimulation` owns a private event kernel, a single-market
region, a :class:`~repro.core.controller.SpotCheckController` with its
pools, group-checkpoint cohorts, and spare replenishment — everything
the fleet needs for that market and nothing shared.  Its RNG seeds
derive from the cell seed and the market *key* alone
(``derive_seed(seed, "market:<type>/<zone>")``), so the simulation
unfolds identically no matter which process hosts it.  That is the
first half of the bit-identity guarantee; the mailbox's logical-clock
merge (see :mod:`repro.core.shard.mailbox`) is the second.

A :class:`MarketShard` is just the set of market simulations one
worker process hosts, with a command dispatch loop the coordinator
drives over a pipe (or calls inline for ``shards=1``).
"""

import math
from dataclasses import dataclass

from repro.backup.server import BackupServerSpec
from repro.cloud.api import CloudApi
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.spot_market import PriceWatch
from repro.cloud.zones import Region, Zone
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.shard.mailbox import Outbox
from repro.core.shard.messages import (
    ApplyCommand,
    FinalizeCommand,
    MigrateAck,
    MigrateRequest,
    ParkRequest,
    PriceCrossing,
    ProvisionRequest,
    RevocationWarning,
    RunCommand,
    ShardReply,
    ShardReport,
    SlaSegment,
    StormReport,
)
from repro.sim.kernel import Environment
from repro.sim.rng import derive_seed
from repro.traces.archive import PriceTrace, TraceArchive
from repro.traces.generator import TraceGenerator
from repro.virt.migration.checkpoint import CheckpointStream
from repro.virt.vm import NestedVM

#: Calm-market spot price for flat-trace markets, far under the
#: on-demand bid, so no revocation machinery ever wakes.
CALM_PRICE = 0.08

#: Ingest-path utilization target when sizing the consolidated backup
#: server: leave headroom so steady flushes never queue behind each
#: other (a saturated datapath measures backlog, not scheduling).
INGEST_UTILIZATION = 0.8


def steady_rate_bps(env, config):
    """Sustained steady-flush rate of one nested VM (class-level fact)."""
    probe = NestedVM(env, M3_CATALOG.get("m3.medium"))
    return CheckpointStream(
        probe.memory, config.mechanism.checkpoint).stream_rate_bps()


def fleet_backup_spec(n_vms, rate_bps):
    """One backup server scaled to the shard count the fleet needs."""
    base = BackupServerSpec()
    shards = max(math.ceil(
        n_vms * rate_bps
        / (INGEST_UTILIZATION * base.write_path_bps)), 1)
    return BackupServerSpec(
        net_bps=base.net_bps * shards,
        disk_write_bps=base.disk_write_bps * shards,
        seq_read_bps=base.seq_read_bps * shards,
        rand_read_bps=base.rand_read_bps * shards,
        fadvise_rand_read_bps=base.fadvise_rand_read_bps * shards,
        max_checkpoint_vms=n_vms,
        page_cache_bytes=base.page_cache_bytes * shards,
    ), shards


@dataclass(frozen=True)
class MarketSpec:
    """One (type, zone) market of the sharded cell.

    ``market_params`` (a :class:`~repro.traces.model.MarketParams`)
    selects a generated price trace — the PR 5 bench scenario; ``None``
    selects a flat calm trace at ``calm_price`` (the fleet-scaling
    cell).  ``region_name`` must prefix ``zone_name`` in the usual
    EC2 shape (``us-east-1`` / ``us-east-1a``).
    """

    type_name: str = "m3.2xlarge"
    zone_name: str = "us-east-1a"
    region_name: str = "us-east-1"
    calm_price: float = CALM_PRICE
    market_params: object = None

    @property
    def key(self):
        return (self.type_name, self.zone_name)


@dataclass(frozen=True)
class ShardConfig:
    """Cell-wide knobs shared by every market simulation."""

    seed: int = 11
    days: float = 14.0
    hot_spares: int = 2
    #: ``None``: consolidate each market's fleet onto one scaled backup
    #: server (the fleet cell's worst-case single cohort).
    vms_per_backup: int = None
    steady_checkpoint_flush: bool = True
    #: Optional :class:`~repro.workloads.mix.FleetMix`: provision each
    #: market's fleet as that deterministic population of workload
    #: classes instead of the homogeneous default.  Applied per market
    #: (blocks of each class in boot order), so the population is
    #: independent of the shard count.
    workload_mix: object = None
    #: Optional :class:`~repro.faults.FaultPlan` applied inside every
    #: market (its injector draws from the market's own kernel RNG, so
    #: chaos runs stay per-market deterministic).
    faults: object = None

    @property
    def duration_s(self):
        return self.days * 24 * 3600.0


class MarketSimulation:
    """The full SpotCheck stack for one market, behind an outbox."""

    def __init__(self, spec, config, market_index, n_vms):
        self.spec = spec
        self.config = config
        self.market_index = market_index
        self.n_vms = n_vms
        self.outbox = Outbox(market_index)

        seed = derive_seed(
            config.seed, f"market:{spec.type_name}/{spec.zone_name}")
        self.env = env = Environment(seed=seed)
        zone = Zone(spec.zone_name, spec.region_name)
        region = Region(name=spec.region_name, zones=[zone])
        self.zone = zone

        injector = None
        if config.faults is not None and config.faults.enabled:
            from repro.faults import FaultInjector
            injector = FaultInjector(env, config.faults)
        self.api = api = CloudApi(env, region, M3_CATALOG, faults=injector)

        itype = M3_CATALOG.get(spec.type_name)
        archive = TraceArchive()
        if spec.market_params is not None:
            archive.add(TraceGenerator(seed=config.seed).generate_market(
                spec.type_name, spec.zone_name, spec.market_params,
                duration_s=config.duration_s))
        else:
            archive.add(PriceTrace(
                [0.0, config.duration_s],
                [spec.calm_price, spec.calm_price],
                spec.type_name, spec.zone_name, itype.on_demand_price))

        controller_config = SpotCheckConfig(
            hot_spares=config.hot_spares,
            vms_per_backup=(config.vms_per_backup
                            if config.vms_per_backup is not None
                            else max(n_vms, 1)),
            steady_checkpoint_flush=config.steady_checkpoint_flush,
        )
        rate_bps = steady_rate_bps(env, controller_config)
        spec_backup, self.backup_shards = fleet_backup_spec(
            max(n_vms, 1), rate_bps)
        controller_config.backup_spec = spec_backup

        self.controller = SpotCheckController(env, api, controller_config)
        self.controller.install_pools(archive, zone,
                                      type_names=[spec.type_name])
        if injector is not None:
            injector.install_backup_crashes(self.controller)
        self.pool = self.controller.pools.spot_pool(
            spec.type_name, spec.zone_name)
        #: The market's workload factory: one deterministic block
        #: schedule over this market's whole fleet (class populations
        #: must not depend on how provisioning requests are batched).
        self._workload_factory = (
            config.workload_mix.workload_factory(max(n_vms, 1))
            if config.workload_mix is not None else None)
        self.customers = {}
        self._parked_total = 0
        self._finalized = False
        self._wire_taps()

    # -- event taps ----------------------------------------------------

    def _wire_taps(self):
        """Attach shard event taps without disturbing the market drive.

        Warnings and storms ride passive hooks (``on_warning`` /
        ``on_storm``); the on-demand boundary crossings ride a pair of
        gated :class:`PriceWatch` bands, mirroring the controller's own
        crossing-driven style — the drive still skips every point no
        tap cares about.
        """
        market = self.pool.market
        market.on_warning(self._tap_warning)
        self.controller.on_storm = self._tap_storm
        od_price = self.pool.itype.on_demand_price
        self._expensive = market.price_at(0.0) > od_price
        market.add_watch(PriceWatch(
            self._tap_expensive, lo=od_price,
            active=lambda: not self._expensive))
        market.add_watch(PriceWatch(
            self._tap_recovered, hi=od_price,
            active=lambda: self._expensive))

    def _tap_warning(self, market, instance, deadline):
        self.outbox.put(RevocationWarning(
            stamp=self.outbox.stamp(self.env.now),
            market_key=self.spec.key, bid=instance.bid, deadline=deadline))

    def _tap_storm(self, pool, storm):
        self.outbox.put(StormReport(
            stamp=self.outbox.stamp(self.env.now),
            market_key=self.spec.key, hosts_lost=len(storm.hosts),
            vms_displaced=len(storm.vms)))

    def _tap_expensive(self, market, price):
        self._expensive = True
        self.outbox.put(PriceCrossing(
            stamp=self.outbox.stamp(self.env.now),
            market_key=self.spec.key, price=price, band="expensive"))

    def _tap_recovered(self, market, price):
        self._expensive = False
        self.outbox.put(PriceCrossing(
            stamp=self.outbox.stamp(self.env.now),
            market_key=self.spec.key, price=price, band="recovered"))

    # -- request application -------------------------------------------

    def apply(self, request):
        """Apply one coordinator request; returns an ack or ``None``.

        Flows run to completion on the local kernel (the clock advances
        by their real migration/API latencies before the next epoch's
        ``run_until``), mirroring how the single-process controller
        interleaves them with market time.
        """
        if isinstance(request, ProvisionRequest):
            if request.count > 0:
                customer = self._customer(request.customer)
                self.env.run(until=self.controller.provision_fleet(
                    customer, request.count, pool=self.pool,
                    workload_factory=self._workload_factory))
            return None
        if isinstance(request, ParkRequest):
            self.env.run(until=self.env.process(
                self._park_flow(request.count)))
            return None
        if isinstance(request, MigrateRequest):
            released = self._release_for_migration(request.count)
            ack = MigrateAck(
                stamp=self.outbox.stamp(self.env.now),
                market_key=self.spec.key, released=released,
                dest_market=request.dest_market)
            # Also publish the ack into the event history: the
            # coordinator acts on the reply copy, but cross-market
            # moves should be visible (and digested) in the merged
            # stream like every other event.
            self.outbox.put(ack)
            return ack
        raise TypeError(f"unknown shard request {type(request).__name__}")

    def _customer(self, name):
        customer = self.customers.get(name)
        if customer is None:
            customer = self.controller.start_customer(name)
            self.customers[name] = customer
        return customer

    def _park_flow(self, count):
        """Live-migrate up to ``count`` VMs to on-demand (stay parked).

        Mirrors the controller's proactive drain: concurrent bounded
        live migrations, losers caught by the normal warning path.
        """
        pool = self.pool
        controller = self.controller
        drains = []
        for host in list(pool.hosts):
            for vm in list(host.vms):
                if len(drains) >= count:
                    break
                if not vm.is_running:
                    continue
                drains.append((vm, controller.migrations.live_migrate(
                    vm, host, cause="shard-park", exclude_pool=pool)))
            if len(drains) >= count:
                break
        parked = 0
        for vm, drain in drains:
            moved = yield drain
            if moved is None:
                continue
            controller.release_backup(vm)
            controller.note_parked(vm, pool, "pool")
            parked += 1
        self._parked_total += parked

    def _release_for_migration(self, count):
        """Relinquish up to ``count`` spot-resident VMs, newest first.

        Cross-market moves are restore-from-backup in SpotCheck terms:
        the source frees its slots and the coordinator reprovisions in
        the destination market, so no VM state crosses the boundary.
        Victim order is customer insertion order (never id sort — ids
        are process-dependent).
        """
        victims = []
        for customer in self.customers.values():
            for vm in reversed(customer.vms):
                if len(victims) >= count:
                    break
                if vm.is_running and not self.controller.is_parked(vm):
                    victims.append(vm)
            if len(victims) >= count:
                break
        for vm in victims:
            self.env.run(until=self.controller.relinquish(vm))
        return len(victims)

    # -- time ----------------------------------------------------------

    def run_until(self, until):
        """Advance the market's kernel to simulated time ``until``."""
        if until > self.env.now:
            self.env.run(until=until)

    def finalize(self):
        """Close the books; returns this market's :class:`ShardReport`."""
        if self._finalized:
            raise RuntimeError("market already finalized")
        self._finalized = True
        controller = self.controller
        controller.finalize()
        ledger = controller.ledger
        summary = {
            "vm_seconds": ledger.total_vm_seconds(),
            "downtime_s": ledger.total_downtime_s(),
            "degraded_s": ledger.total_degraded_s(),
            "total_cost": ledger.total_cost(self.api),
            "migrations": len(ledger.migrations),
            "revocation_events": len(ledger.revocations),
            "state_loss_events": len(ledger.state_loss_events()),
            "cost_breakdown": ledger.cost_breakdown(self.api),
            "max_concurrent_revocation":
                ledger.max_concurrent_revocation(),
            "backup_servers": controller.backup_pool.server_count,
        }
        vm_hours = summary["vm_seconds"] / 3600.0
        for name, customer in sorted(self.customers.items()):
            self.outbox.put(SlaSegment(
                stamp=self.outbox.stamp(self.env.now),
                market_key=self.spec.key, customer=name,
                vm_hours=vm_hours,
                availability=ledger.availability(),
                unavailability_pct=100.0 * ledger.unavailability(),
                degradation_pct=100.0 * ledger.degradation()))
        return ShardReport(
            stamp=self.outbox.stamp(self.env.now),
            market=self.market_index,
            market_key=self.spec.key,
            vms=sum(len(c.vms) for c in self.customers.values()),
            hosts=self.pool.host_count,
            parked=self._parked_total,
            events_processed=self.env.events_processed,
            summary=summary,
            drive=self.pool.market.drive_stats(),
            # The constant ``splits`` is the retired plan-split counter:
            # FleetResult.digest() hashes this dict, and the recorded
            # benchmark digests still include it.
            flush=dict(controller.migrations.flush_drive_stats(),
                       splits=0),
            spares=controller.spares_drive_stats(),
        )


class MarketShard:
    """The market simulations one worker hosts, behind a command loop."""

    def __init__(self, assignments, config):
        """``assignments``: list of ``(market_index, spec, n_vms)``."""
        self.sims = {}
        for market_index, spec, n_vms in assignments:
            self.sims[market_index] = MarketSimulation(
                spec, config, market_index, n_vms)

    def _drain(self):
        messages = []
        for index in sorted(self.sims):
            messages.extend(self.sims[index].outbox.drain())
        return tuple(messages)

    def execute(self, command):
        """Dispatch one coordinator command; returns a ShardReply."""
        if isinstance(command, ApplyCommand):
            acks = []
            for request in command.requests:
                sim = self.sims.get(request.market)
                if sim is None:
                    raise KeyError(
                        f"market {request.market} is not on this shard")
                ack = sim.apply(request)
                if ack is not None:
                    acks.append(ack)
            return ShardReply(messages=self._drain(), acks=tuple(acks))
        if isinstance(command, RunCommand):
            for index in sorted(self.sims):
                self.sims[index].run_until(command.until)
            return ShardReply(messages=self._drain())
        if isinstance(command, FinalizeCommand):
            reports = tuple(self.sims[index].finalize()
                            for index in sorted(self.sims))
            return ShardReply(messages=self._drain(), reports=reports)
        raise TypeError(f"unknown shard command {type(command).__name__}")


__all__ = [
    "CALM_PRICE",
    "INGEST_UTILIZATION",
    "MarketShard",
    "MarketSimulation",
    "MarketSpec",
    "ShardConfig",
    "fleet_backup_spec",
    "steady_rate_bps",
]

"""The four benchmark workloads, driven through public entry points.

Each workload is a pair of functions: ``setup(sim_seed)`` does
everything a user pays before the first cell runs (imports, the shared
price archive, stack construction the benchmark itself does) and
returns a context; ``run(ctx, clock, digest, ...)`` runs the cells,
digests each one's simulated outputs with ``digest`` and returns an
:class:`Outcome`.  ``run`` records the host time of the first
cell-running call (``Outcome.started``) so the caller can split set-up
from run time.

The simulator seed of a run is picked from a short recorded list by
the benchmark seed (``sim_seed``), so every run can be checked against
a digest recorded for exactly that input (``digests.json``).
"""

import os
from dataclasses import dataclass, field

#: Workload name -> simulator seeds a benchmark seed maps onto.  The
#: paper-grid seeds are the first four under which every policy sees
#: revocations at its shape; every chaos seed injects faults and migrates.
SIM_SEEDS = {
    "paper-grid": (1, 3, 4, 7),
    "fleet-mix": (11, 12, 13, 14),
    "sharded-rebalance": (11, 12, 13, 14),
    "chaos-sla": (11, 12, 13, 14),
}

#: Workload shapes (simulated days, nested VMs, ...).  A sample takes
#: 5-10 s on a 2.1 GHz Xeon, so a 30 s run holds three or more and its
#: median can drop one badly probed sample (``speed.py``).  The grid
#: takes 13-15 s: it keeps 14 days because shorter horizons leave 1P-M
#: without revocations on most seeds.
PAPER_GRID = {"days": 14.0, "vms": 10}
FLEET_MIX = {"days": 3.0, "vms": 100_000, "classes": 8}
SHARDED = {"days": 3.0, "vms": 20_000, "markets": 4, "shards": 2,
           "move_fraction": 0.005}
CHAOS = {"days": 42.0, "vms": 8, "policy": "4P-COST"}


def sim_seed(workload, seed):
    seeds = SIM_SEEDS[workload]
    return seeds[abs(seed) % len(seeds)]


@dataclass
class Outcome:
    """What one workload run produced, for checking and metrics."""

    #: [(cell name, digest)] in run order.
    cells: list = field(default_factory=list)
    #: Host time (``clock()``) of the first and after the last cell call.
    started: float = 0.0
    finished: float = 0.0
    #: Host seconds spent inside the cell-running entry points.
    run_s: float = 0.0
    #: Host seconds from each cell's entry call until its whole fleet
    #: runs, summed over cells.
    boot_s: float = 0.0
    vm_hours: float = 0.0
    #: Per-layer counters read from the program's own stats.
    counters: dict = field(default_factory=dict)
    #: Peak RSS (KiB) of processes other than this one (shard workers).
    child_hwm_kib: dict = field(default_factory=dict)


def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


def _controller_counters(counters, controller):
    drive = controller.api.marketplace.drive_stats()
    _add(counters, "cloud.spot_market.points", drive.get("points", 0))
    _add(counters, "cloud.spot_market.delivered", drive.get("delivered", 0))
    flush = controller.migrations.flush_drive_stats()
    _add(counters, "virt.migration.flush_flows", flush["flows_issued"])
    _add(counters, "virt.migration.cohorts", flush["cohorts_created"])


def _cell_counters(counters, controller, summary):
    _controller_counters(counters, controller)
    _add(counters, "sim.events", controller.env.events_processed)
    _add(counters, "core.migrations", int(summary["migrations"]))


# -- paper-grid --------------------------------------------------------


def setup_paper_grid(seed):
    from repro.experiments import policy_grid
    from repro.experiments.scenario import MECHANISMS, POLICIES

    policy_grid.clear_caches()
    archive = policy_grid.shared_archive(seed, PAPER_GRID["days"])
    return {"seed": seed, "archive": archive,
            "cells": [(p, m) for p in POLICIES for m in MECHANISMS]}


def run_paper_grid(ctx, clock, digest):
    from repro.experiments.scenario import PolicySimulation, ScenarioConfig

    out = Outcome()
    for policy, mechanism in ctx["cells"]:
        config = ScenarioConfig(policy=policy, mechanism=mechanism,
                                seed=ctx["seed"], **PAPER_GRID)
        summary, controller = _timed_policy_cell(
            out, clock, PolicySimulation(config, archive=ctx["archive"]))
        out.cells.append((f"{policy}/{mechanism}", digest(summary)))
        out.vm_hours += summary["vm_hours"]
        _cell_counters(out.counters, controller, summary)
    return out


def _timed_policy_cell(out, clock, simulation, **kwargs):
    """Run one PolicySimulation, adding its run and boot time to ``out``."""
    booted = []

    def probe(_env, _controller):
        booted.append(clock())

    begin = clock()
    if not out.started:
        out.started = begin
    summary, controller = simulation.run(
        return_controller=True, probes=(probe,), **kwargs)
    out.finished = clock()
    out.run_s += out.finished - begin
    out.boot_s += booted[0] - begin
    return summary, controller


# -- fleet-mix ---------------------------------------------------------


def setup_fleet_mix(seed):
    """The calm 100k-VM mixed cell, built the way ``repro bench`` does."""
    from repro.cloud.api import CloudApi
    from repro.cloud.instance_types import M3_CATALOG
    from repro.cloud.zones import default_region
    from repro.core.config import SpotCheckConfig
    from repro.core.controller import SpotCheckController
    from repro.core.shard import fleet_backup_spec, steady_rate_bps
    from repro.core.shard.market import CALM_PRICE
    from repro.sim.kernel import Environment
    from repro.traces.archive import PriceTrace, TraceArchive
    from repro.workloads import default_fleet_mix

    n_vms, days = FLEET_MIX["vms"], FLEET_MIX["days"]
    mix = default_fleet_mix(classes=FLEET_MIX["classes"])
    env = Environment(seed=seed)
    region = default_region(1)
    zone = region.zones[0]
    api = CloudApi(env, region, M3_CATALOG)
    duration_s = days * 24 * 3600.0
    itype = M3_CATALOG.get("m3.2xlarge")
    archive = TraceArchive()
    archive.add(PriceTrace([0.0, duration_s], [CALM_PRICE, CALM_PRICE],
                           itype.name, zone.name, itype.on_demand_price))
    config = SpotCheckConfig(hot_spares=2, vms_per_backup=n_vms,
                             steady_checkpoint_flush=True,
                             defer_flush_accounting=True,
                             soa_checkpoint_flush=True)
    config.backup_spec, _ = fleet_backup_spec(
        n_vms, steady_rate_bps(env, config))
    controller = SpotCheckController(env, api, config)
    controller.install_pools(archive, zone, type_names=[itype.name])
    return {"env": env, "controller": controller,
            "customer": controller.start_customer("fleet"),
            "pool": controller.pools.spot_pool(itype.name, zone.name),
            "factory": mix.workload_factory(n_vms),
            "duration_s": duration_s}


def run_fleet_mix(ctx, clock, digest):
    env, controller = ctx["env"], ctx["controller"]
    n_vms = FLEET_MIX["vms"]
    out = Outcome()
    out.started = clock()
    vms = env.run(until=controller.provision_fleet(
        ctx["customer"], n_vms, pool=ctx["pool"],
        workload_factory=ctx["factory"]))
    out.boot_s = clock() - out.started
    env.run(until=ctx["duration_s"])
    controller.finalize()
    summary = controller.summary(total_vms=n_vms)
    out.finished = clock()
    out.run_s = out.finished - out.started
    if len(vms) != n_vms:
        raise AssertionError(f"booted {len(vms)} of {n_vms} VMs")
    out.cells.append(("fleet", digest(summary)))
    out.vm_hours = summary["vm_hours"]
    _cell_counters(out.counters, controller, summary)
    return out


# -- sharded-rebalance -------------------------------------------------


def setup_sharded(seed):
    from repro.core.shard import MarketSpec, ShardConfig, ShardedCell

    specs = [MarketSpec(type_name="m3.2xlarge", zone_name=f"us-east-1{z}")
             for z in "abcd"[:SHARDED["markets"]]]
    config = ShardConfig(seed=seed, days=SHARDED["days"])
    return {"cell": ShardedCell(total_vms=SHARDED["vms"], markets=specs,
                                config=config)}


def rebalance_rule(total_vms, markets):
    """Each epoch, move a fixed share of the fleet one market onward."""
    from repro.core.shard import MigrateRequest

    count = max(int(total_vms * SHARDED["move_fraction"]), 1)

    def rebalance(epoch, _batch, _cell):
        source = epoch % markets
        return [MigrateRequest(market=source, count=count,
                               dest_market=(source + 1) % markets)]
    return rebalance


class _TimedMailbox:
    """Forwards to the cell's mailbox, noting when each round lands.

    The first delivery closes the provisioning round (boot).  Every
    delivery also samples the live shard workers' peak RSS, so the
    last one (the finalize round, workers idle but alive) sees each
    worker's high-water mark.
    """

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.deliveries = []
        self.hwm_kib = {}

    def deliver(self, streams):
        batch = self.inner.deliver(streams)
        self.deliveries.append(self.clock())
        for child in _live_children():
            kib = _vm_hwm_kib(child)
            if kib is not None:
                self.hwm_kib[child] = max(self.hwm_kib.get(child, 0), kib)
        return batch

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _live_children():
    import multiprocessing
    return [child.pid for child in multiprocessing.active_children()]


def _vm_hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def run_sharded(ctx, clock, digest, shards=None):
    from repro.core.shard import MarketSimulation

    cell = ctx["cell"]
    mailbox = cell.mailbox = _TimedMailbox(cell.mailbox, clock)
    epochs = max(int(SHARDED["days"]), 1)
    shards = shards or SHARDED["shards"]
    # At one shard every market lives in this process: keep each one
    # to read its controller's counters afterwards.
    markets = []
    init = MarketSimulation.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        markets.append(self)

    if shards == 1:
        MarketSimulation.__init__ = keep
    out = Outcome()
    out.started = clock()
    try:
        result = cell.run(shards=shards, epochs=epochs,
                          rebalance=rebalance_rule(cell.total_vms,
                                                   len(cell.markets)))
    finally:
        MarketSimulation.__init__ = init
    out.finished = clock()
    out.run_s = out.finished - out.started
    out.boot_s = mailbox.deliveries[0] - out.started
    out.child_hwm_kib = dict(mailbox.hwm_kib)
    summary = result.summary
    out.cells.append(("sharded", result.digest()))
    out.vm_hours = summary["vm_hours"]
    for market in markets:
        _controller_counters(out.counters, market.controller)
    out.counters["sim.events"] = summary["events_processed"]
    out.counters["core.migrations"] = summary["migrations"]
    out.counters["core.shard.messages"] = len(result.messages)
    out.counters["core.shard.epochs"] = epochs
    out.counters["core.shard.epoch_marks"] = [
        t - out.started for t in mailbox.deliveries]
    return out


# -- chaos-sla ---------------------------------------------------------


def setup_chaos(seed):
    from repro.experiments.chaos import default_chaos_plan
    from repro.experiments.scenario import PolicySimulation, ScenarioConfig
    from repro.experiments.sla_chaos import default_traffic_mix
    from repro.obs import Observability

    config = ScenarioConfig(policy=CHAOS["policy"], seed=seed,
                            days=CHAOS["days"], vms=CHAOS["vms"],
                            faults=default_chaos_plan(),
                            traffic=default_traffic_mix(CHAOS["days"]))
    archive = PolicySimulation.build_archive(seed, config.duration_s,
                                             config.market_params)
    return {"simulation": PolicySimulation(config, archive=archive),
            "obs": Observability()}


def run_chaos(ctx, clock, digest, export_dir):
    from repro.experiments.chaos import chaos_digest
    from repro.obs import Counter

    obs = ctx["obs"]
    out = Outcome()
    summary, controller = _timed_policy_cell(
        out, clock, ctx["simulation"], obs=obs)
    begin = clock()
    obs.write_dir(export_dir)
    out.counters["obs.export_s"] = clock() - begin
    out.counters["obs.export_bytes"] = sum(
        os.path.getsize(os.path.join(export_dir, name))
        for name in sorted(os.listdir(export_dir)))
    counters = {f"{s.name}{sorted(s.labels.items())}": s.value
                for s in obs.metrics.series() if isinstance(s, Counter)}
    golden = chaos_digest(obs, summary)
    out.cells.append(("chaos", digest({"summary": summary,
                                       "counters": counters,
                                       "golden": golden})))
    out.vm_hours = summary["vm_hours"]
    _cell_counters(out.counters, controller, summary)
    drive = summary["traffic_drive"]
    out.counters["traffic.engine.wakes"] = drive["wakes"]
    out.counters["traffic.engine.segments"] = drive["segments"]
    out.counters["faults.injected"] = golden["faults_injected_total"]
    out.counters["faults.retries"] = golden["retries_total"]
    return out


WORKLOADS = {
    "paper-grid": (setup_paper_grid, run_paper_grid),
    "fleet-mix": (setup_fleet_mix, run_fleet_mix),
    "sharded-rebalance": (setup_sharded, run_sharded),
    "chaos-sla": (setup_chaos, run_chaos),
}

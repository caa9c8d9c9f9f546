"""Fleet-scale cell benchmark: kernel events vs nested-VM count.

One calm-market SpotCheck cell — a single m3.2xlarge spot pool whose
flat price stays far below the bid, every VM backed up with the
steady-state checkpoint flush running through the group checkpoint
scheduler — is driven twice: once at a small fleet size and once at
fleet scale (100k nested VMs by default).  The batched schedulers'
promise is that fleet size buys (almost) no kernel events: the group
scheduler wakes once per shared checkpoint interval regardless of
cohort size, the condition-driven spare replenisher sleeps at target,
and the pool index answers placement queries without per-VM scans.

``measure_fleet_scaling`` returns both cells' event totals, the
normalized ``events_per_vm_hour`` rate, and the large/small event and
wall-clock ratios ``check_bench_floors`` holds in CI: the 100k-VM cell
must stay under 20x the events of the 10-VM cell and within ~10x its
wall clock — per-VM loops would blow through both by orders of
magnitude.

The cell intentionally consolidates the whole fleet onto ONE scaled
backup server (spec multiplied by the shard count a real deployment
would spread the fleet over, sized from the sustained per-VM stream
rate): the homogeneous fleet then forms a single cohort, which is the
worst case for the scheduler's aggregation bookkeeping and the best
case for event elision — exactly the axis this benchmark guards.
"""

import time

from repro.cloud.api import CloudApi
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.shard import (
    MarketSpec,
    ShardConfig,
    ShardedCell,
    fleet_backup_spec,
    steady_rate_bps,
)
from repro.core.shard.market import CALM_PRICE
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive
from repro.workloads import default_fleet_mix


def _drive_cell(n_vms, days, seed, mix=None):
    """Run one calm-market fleet cell; returns its measurement dict.

    The spot price sits at :data:`~repro.core.shard.market.CALM_PRICE`,
    far under the m3.2xlarge on-demand bid, so no revocation machinery
    ever wakes.  ``mix`` (a :class:`~repro.workloads.mix.FleetMix`)
    provisions the fleet as a heterogeneous population of write-scaled
    workload classes instead of the homogeneous default — the same
    code path either way, the homogeneous cell simply being the
    single-class mix.  The backup tier is sized from the default
    workload probe, an upper bound for any mix whose factors stay <= 1.
    """
    env = Environment(seed=seed)
    region = default_region(1)
    zone = region.zones[0]
    api = CloudApi(env, region, M3_CATALOG)
    duration_s = days * 24 * 3600.0
    itype = M3_CATALOG.get("m3.2xlarge")
    archive = TraceArchive()
    archive.add(PriceTrace([0.0, duration_s], [CALM_PRICE, CALM_PRICE],
                           itype.name, zone.name, itype.on_demand_price))

    config = SpotCheckConfig(
        hot_spares=2,
        vms_per_backup=n_vms,
        steady_checkpoint_flush=True,
        defer_flush_accounting=True,
    )
    rate_bps = steady_rate_bps(env, config)
    spec, shards = fleet_backup_spec(n_vms, rate_bps)
    config.backup_spec = spec

    controller = SpotCheckController(env, api, config)
    controller.install_pools(archive, zone, type_names=[itype.name])
    customer = controller.start_customer("fleet")
    pool = controller.pools.spot_pool(itype.name, zone.name)

    workload_factory = (mix.workload_factory(n_vms)
                        if mix is not None else None)
    started = time.perf_counter()
    vms = env.run(until=controller.provision_fleet(
        customer, n_vms, pool=pool, workload_factory=workload_factory))
    boot_wall = time.perf_counter() - started
    env.run(until=duration_s)
    controller.finalize()
    wall = time.perf_counter() - started

    if len(vms) != n_vms:
        raise AssertionError(
            f"fleet cell booted {len(vms)} of {n_vms} VMs")
    flush = controller.migrations.flush_drive_stats()
    spares = controller.spares_drive_stats()
    vm_hours = n_vms * days * 24.0
    return {
        "vms": n_vms,
        "hosts": pool.host_count,
        "days": days,
        "classes": len(mix) if mix is not None else 1,
        "backup_shards": shards,
        "events": env.events_processed,
        "events_per_vm_hour": env.events_processed / vm_hours,
        "wall_s": wall,
        "boot_wall_s": boot_wall,
        "steady_wall_s": wall - boot_wall,
        "flush_cohorts": flush["cohorts_created"],
        "flush_flows": flush["flows_issued"],
        "spare_wakes": spares["wakes"],
        "spare_polls": spares["polls"],
    }


def measure_fleet_scaling(small_vms=10, large_vms=100_000, days=14.0,
                          seed=11, echo=None):
    """Benchmark the fleet cell at two sizes; returns the comparison.

    Returns a dict with both cells' measurements plus the derived
    ``event_ratio`` (large events / small events — near 1.0 when the
    batched schedulers elide correctly, O(large/small) when any per-VM
    loop survives) and ``wall_ratio`` (large steady-state wall / small
    steady-state wall, floored at 50 ms per cell so sub-second smoke
    cells cannot flake the ratio).  The steady-state wall excludes the
    boot phase — provisioning N VMs is honestly O(N) in object
    construction (reported separately as ``boot_wall_s``), while the
    scaling law this ratchet guards is about what the fleet costs
    *after* it is up.
    """
    if small_vms < 1 or large_vms <= small_vms:
        raise ValueError("need 1 <= small_vms < large_vms")
    if echo is not None:
        echo(f"  small cell: {small_vms} VMs, {days:.0f} days ...")
    small = _drive_cell(small_vms, days, seed)
    if echo is not None:
        echo(f"    {small['events']} events, {small['wall_s']:.2f}s")
        echo(f"  large cell: {large_vms} VMs, {days:.0f} days ...")
    large = _drive_cell(large_vms, days, seed)
    if echo is not None:
        echo(f"    {large['events']} events, {large['wall_s']:.2f}s")
    return {
        "days": days,
        "seed": seed,
        "small": small,
        "large": large,
        "event_ratio": large["events"] / max(small["events"], 1),
        "wall_ratio": max(large["steady_wall_s"], 0.05)
        / max(small["steady_wall_s"], 0.05),
    }


def measure_fleet_mix(vms=100_000, days=14.0, seed=11, classes=8,
                      baseline=None, digest_vms=2_000, digest_markets=4,
                      shard_counts=(1, 2), echo=None):
    """Benchmark the heterogeneous fleet cell; assert its bit-identity.

    Drives the calm fleet cell once as a ``classes``-way heterogeneous
    population (:func:`~repro.workloads.mix.default_fleet_mix`), the
    group checkpoint scheduler serving every class's cohorts, and
    compares it against the homogeneous cell of the same size — pass
    the fleet benchmark's large cell as ``baseline`` to reuse its
    measurement.
    The heterogeneity ratchet holds the ``event_ratio`` near the mix's
    summed round rate (~1.5x for the default geometric mix) instead of
    the ``classes``-fold blowup per-plan wakeups would cost.

    Also runs the mixed cell through the sharded fleet (one run per
    entry in ``shard_counts``) and reports ``bit_identical``:
    every shard count must produce the same ``FleetResult.digest()``.
    """
    if not shard_counts or shard_counts[0] != 1:
        raise ValueError("shard_counts must start with the single-process"
                         " reference (1)")
    mix = default_fleet_mix(classes=classes)
    if baseline is None:
        if echo is not None:
            echo(f"  homogeneous cell: {vms} VMs, {days:.0f} days ...")
        baseline = _drive_cell(vms, days, seed)
    elif baseline["vms"] != vms or baseline["days"] != days:
        raise ValueError("baseline cell shape does not match "
                         f"({baseline['vms']} VMs / {baseline['days']} "
                         f"days, want {vms} / {days})")
    if echo is not None:
        echo(f"  mixed cell: {vms} VMs, {len(mix)} classes, "
             f"{days:.0f} days ...")
    mixed = _drive_cell(vms, days, seed, mix=mix)
    if echo is not None:
        echo(f"    {mixed['events']} events, {mixed['flush_cohorts']} "
             f"cohorts, {mixed['wall_s']:.2f}s")

    zone_letters = "abcdefghijklmnopqrstuvwxyz"[:digest_markets]
    specs = [MarketSpec(type_name="m3.2xlarge",
                        zone_name=f"us-east-1{letter}")
             for letter in zone_letters]
    config = ShardConfig(seed=seed, days=days, workload_mix=mix)
    runs = []
    for shards in shard_counts:
        if echo is not None:
            echo(f"  mixed sharded cell: {digest_vms} VMs / "
                 f"{digest_markets} markets, shards={shards} ...")
        run = _drive_sharded(digest_vms, specs, config, shards)
        runs.append(run)
        if echo is not None:
            echo(f"    {run['events']} events, {run['wall_s']:.2f}s, "
                 f"digest {run['digest'][:12]}")
    single, widest = runs[0], runs[-1]
    return {
        "classes": len(mix),
        "vms": vms,
        "days": days,
        "seed": seed,
        "homogeneous": baseline,
        "mixed": mixed,
        "event_ratio": mixed["events"] / max(baseline["events"], 1),
        "wall_ratio": max(mixed["steady_wall_s"], 0.05)
        / max(baseline["steady_wall_s"], 0.05),
        "single": {k: single[k] for k in ("shards", "wall_s", "events")},
        "sharded": {k: widest[k] for k in ("shards", "wall_s", "events")},
        "digest": single["digest"],
        "bit_identical": len({run["digest"] for run in runs}) == 1,
    }


def _drive_sharded(total_vms, markets, config, shards):
    """One sharded-cell run; returns its measurement dict + digest."""
    cell = ShardedCell(total_vms=total_vms, markets=markets, config=config)
    started = time.perf_counter()
    result = cell.run(shards=shards)
    wall = time.perf_counter() - started
    return {
        "shards": result.shards,
        "wall_s": wall,
        "events": result.summary["events_processed"],
        "vm_hours": result.summary["vm_hours"],
        "digest": result.digest(),
    }


def measure_sharded_fleet(vms=100_000, days=14.0, seed=11, markets=4,
                          shard_counts=(1, 2, 4), echo=None):
    """Benchmark the sharded cell and assert its bit-identity.

    Runs the same ``vms``-VM calm fleet cell, spread over ``markets``
    (type, zone) markets, once per entry in ``shard_counts`` —
    ``shard_counts[0]`` must be 1 (the single-process reference).
    Returns both the single-process and widest sharded measurements,
    the wall-clock ``speedup``, and ``bit_identical``: whether every
    shard count produced the same :meth:`FleetResult.digest`.
    """
    if vms < markets:
        raise ValueError("need at least one VM per market")
    if not shard_counts or shard_counts[0] != 1:
        raise ValueError("shard_counts must start with the single-process"
                         " reference (1)")
    zone_letters = "abcdefghijklmnopqrstuvwxyz"[:markets]
    specs = [MarketSpec(type_name="m3.2xlarge",
                        zone_name=f"us-east-1{letter}")
             for letter in zone_letters]
    config = ShardConfig(seed=seed, days=days)
    runs = []
    for shards in shard_counts:
        if echo is not None:
            echo(f"  sharded cell: {vms} VMs / {markets} markets, "
                 f"shards={shards} ...")
        run = _drive_sharded(vms, specs, config, shards)
        runs.append(run)
        if echo is not None:
            echo(f"    {run['events']} events, {run['wall_s']:.2f}s, "
                 f"digest {run['digest'][:12]}")
    single, widest = runs[0], runs[-1]
    return {
        "vms": vms,
        "markets": markets,
        "days": days,
        "seed": seed,
        "single": {k: single[k] for k in ("shards", "wall_s", "events")},
        "sharded": {k: widest[k] for k in ("shards", "wall_s", "events")},
        "speedup": max(single["wall_s"], 0.05)
        / max(widest["wall_s"], 0.05),
        "digest": single["digest"],
        "bit_identical": len({run["digest"] for run in runs}) == 1,
    }

"""The ``repro bench`` harness: run, serialize, and validate benchmarks.

One :func:`run_bench` call produces a ``repro-bench/2`` payload;
:func:`write_bench` lands it as ``BENCH_<label>.json``.  The schema is
deliberately flat and stable so that successive artifacts (one per
commit, uploaded by CI) can be diffed and plotted as a performance
trajectory: kernel events/sec must not regress, grid speedup must hold.

Schema 2 adds the ``market`` section (the stepped-vs-indexed market
drive microbenchmark), per-cell ``market_drive`` counters, the grid's
``parallel_plan`` decision, and :func:`check_bench_floors` — the
generous absolute floors CI holds kernel and market-drive throughput
to.

Schema 3 adds the ``traffic`` section: the traffic-engine scaling
microbenchmark (``repro.benchmarking.traffic``), whose low- and
high-volume cells must land identical kernel-wake counts —
``check_bench_floors`` fails the artifact if request volume bought
even one extra wake.

Schema 4 adds the ``fleet`` section: the fleet-scale cell benchmark
(``repro.benchmarking.fleet``), a calm-market SpotCheck cell driven at
two fleet sizes with the steady checkpoint flush running through the
group scheduler.  ``check_bench_floors`` holds the large cell's kernel
events under :data:`FLEET_EVENT_RATIO_CEILING` times the small cell's
and its wall clock under :data:`FLEET_WALL_RATIO_CEILING` times — a
surviving per-VM loop blows through both by orders of magnitude.

Schema 5 adds the ``index`` section: the portfolio-drive benchmark
(``repro.benchmarking.index``), the same cell run under 1P-M and an
index-tracking portfolio.  ``check_bench_floors`` holds the portfolio
cell's ``delivered_fraction`` under
:data:`INDEX_DELIVERED_FRACTION_CEILING` — portfolio rebalancing must
ride price crossings, not reintroduce the per-point market drive.

Schema 6 adds the ``shard`` section: the sharded fleet cell
(``repro.core.shard``), the same total fleet spread over (type, zone)
market shards and run once per shard count.  ``check_bench_floors``
requires ``shard.bit_identical`` — every shard count must produce the
same ``FleetResult.digest()``, the subsystem's determinism contract.
Schema 6 also splits the fleet cells' wall clock into ``boot_wall_s``
(provisioning, honestly O(N) in VM construction) and
``steady_wall_s``; ``fleet.wall_ratio`` ratchets the steady-state
portion, which is what must stay flat as the fleet grows to 1M VMs.

Schema 7 adds the ``fleet_mix`` section: the heterogeneous fleet cell
(``measure_fleet_mix``) — the same calm cell provisioned as a
geometric mix of distinct workload classes, its steady flushes served
by the group checkpoint scheduler.  ``check_bench_floors`` holds the
mixed cell within :data:`FLEET_MIX_EVENT_RATIO_CEILING` times the
homogeneous cell's kernel events and
:data:`FLEET_MIX_WALL_RATIO_CEILING` times its steady wall clock (a
per-plan wakeup loop costs the class count instead), requires at least
as many cohorts as classes, and requires ``fleet_mix.bit_identical``
— the mixed cell must produce the same ``FleetResult.digest()`` at
every shard count.
"""

import json
import os
import sys
import time

from repro.benchmarking.fleet import (
    measure_fleet_mix,
    measure_fleet_scaling,
    measure_sharded_fleet,
)
from repro.benchmarking.grid import measure_cell, measure_grid
from repro.benchmarking.index import measure_index_drive
from repro.benchmarking.kernel import measure_kernel
from repro.benchmarking.market import measure_market_drive
from repro.benchmarking.traffic import measure_traffic_scaling
from repro.experiments.scenario import MECHANISMS, POLICIES

#: Current artifact schema identifier.
BENCH_SCHEMA = "repro-bench/7"

#: Floors for :func:`check_bench_floors`, far below what any healthy
#: host measures (a laptop does ~1M kernel events/sec and ~300k stepped
#: market points/sec) so CI noise cannot flake the guard, while a
#: complexity regression — the drive waking per point again, the kernel
#: heap degrading — still lands well under them.
KERNEL_EVENTS_PER_SEC_FLOOR = 50_000.0
MARKET_EVENTS_PER_SEC_FLOOR = 20_000.0

#: Fleet-cell scaling ceilings.  The measured ratios sit near 1.2 and
#: 1.7 (fleet size buys almost nothing); a surviving per-VM loop
#: multiplies events by the fleet-size ratio (1000x+), so generous
#: ceilings still catch any real regression without flaking on noise.
FLEET_EVENT_RATIO_CEILING = 20.0
FLEET_WALL_RATIO_CEILING = 10.0

#: Heterogeneity ratchet.  The mixed cell's kernel events are
#: deterministic and land near 1.6x the homogeneous cell's (the
#: default geometric mix's summed checkpoint-round rate); a per-plan
#: wakeup loop costs the full class count (8x+), so 2x catches it with
#: headroom.  The wall ceiling is looser because wall clock is noisy —
#: measured runs sit near 2x, a per-VM regression sits at fleet scale.
FLEET_MIX_EVENT_RATIO_CEILING = 2.0
FLEET_MIX_WALL_RATIO_CEILING = 4.0

#: Ceiling on the portfolio cell's delivered-events-per-trace-point
#: fraction.  Measured runs sit under 0.02 (a couple hundred crossings
#: across ~15k points); a per-point drive sits at 1.0, so a generous
#: ceiling still trips on any real regression.
INDEX_DELIVERED_FRACTION_CEILING = 0.25

#: Preset for the seconds-scale CI smoke benchmark.
SMOKE_PRESET = {
    "kernel_events": 150_000,
    "policies": ("1P-M", "4P-ED"),
    "mechanisms": ("spotcheck-lazy", "xen-live"),
    "days": 2.0,
    "vms": 4,
    "workers": 2,
    "cell_days": 2.0,
    "cell_vms": 4,
    "market_days": 2.0,
    "market_instances": 4,
    "traffic_days": 2.0,
    "traffic_scales": (1_000, 1_000_000),
    "fleet_days": 2.0,
    "fleet_scales": (10, 10_000),
    "fleet_mix_classes": 8,
    "index_days": 2.0,
    "index_vms": 4,
    "shard_vms": 2_000,
    "shard_days": 2.0,
    "shard_markets": 4,
    "shard_counts": (1, 2),
}

#: Preset for a full local benchmark run.
FULL_PRESET = {
    "kernel_events": 1_000_000,
    "policies": POLICIES,
    "mechanisms": MECHANISMS,
    "days": 14.0,
    "vms": 10,
    "workers": 4,
    "cell_days": 14.0,
    "cell_vms": 10,
    "market_days": 14.0,
    "market_instances": 10,
    "traffic_days": 7.0,
    "traffic_scales": (1_000, 1_000_000),
    "fleet_days": 14.0,
    "fleet_scales": (10, 100_000),
    "fleet_mix_classes": 8,
    "index_days": 14.0,
    "index_vms": 10,
    "shard_vms": 100_000,
    "shard_days": 14.0,
    "shard_markets": 4,
    "shard_counts": (1, 2, 4),
}


def run_bench(label="local", smoke=False, seed=11, workers=None, days=None,
              vms=None, kernel_events=None, fleet_vms=None, fleet_days=None,
              shards=None, fleet_mix_classes=None, echo=None):
    """Run the kernel, cell, and grid benchmarks; returns the payload."""
    preset = dict(SMOKE_PRESET if smoke else FULL_PRESET)
    if workers is not None:
        preset["workers"] = workers
    if days is not None:
        preset["days"] = preset["cell_days"] = preset["index_days"] = days
    if vms is not None:
        preset["vms"] = preset["cell_vms"] = preset["index_vms"] = vms
    if kernel_events is not None:
        preset["kernel_events"] = kernel_events
    if fleet_vms is not None:
        preset["fleet_scales"] = (preset["fleet_scales"][0], fleet_vms)
        preset["shard_vms"] = fleet_vms
    if fleet_days is not None:
        preset["fleet_days"] = preset["shard_days"] = fleet_days
    if shards is not None:
        if shards < 2:
            raise ValueError("--shards must be at least 2 (the "
                             "single-process reference always runs)")
        preset["shard_counts"] = (1, shards)
    if fleet_mix_classes is not None:
        if fleet_mix_classes < 1:
            raise ValueError("--fleet-mix needs at least one class")
        preset["fleet_mix_classes"] = fleet_mix_classes

    def say(message):
        if echo is not None:
            echo(message)

    if days is not None:
        preset["market_days"] = days

    say(f"kernel: {preset['kernel_events']} events x3 ...")
    kernel = measure_kernel(events=preset["kernel_events"])
    say(f"  {kernel['events_per_sec']:.0f} events/sec")

    say(f"market drive: {preset['market_days']:.0f} days, "
        f"{preset['market_instances']} instances, stepped vs indexed ...")
    market = measure_market_drive(days=preset["market_days"], seed=seed,
                                  instances=preset["market_instances"])
    say(f"  {market['events_eliminated']} of {market['trace_points']} "
        f"events eliminated (x{market['event_reduction']:.0f}), wall "
        f"x{market['speedup']:.1f}")

    low_scale, high_scale = preset["traffic_scales"]
    say(f"traffic engine: {preset['traffic_days']:.0f} days, "
        f"{low_scale} vs {high_scale} users ...")
    traffic = measure_traffic_scaling(scales=preset["traffic_scales"],
                                      days=preset["traffic_days"])
    say(f"  {traffic['high']['requests']:.0f} requests in "
        f"{traffic['high']['wakes']} wakes (x{traffic['request_ratio']:.0f} "
        f"volume, wake ratio {traffic['wake_ratio']:.2f})")

    small_fleet, large_fleet = preset["fleet_scales"]
    say(f"fleet cell: {preset['fleet_days']:.0f} days, "
        f"{small_fleet} vs {large_fleet} VMs ...")
    fleet = measure_fleet_scaling(small_vms=small_fleet,
                                  large_vms=large_fleet,
                                  days=preset["fleet_days"], seed=seed,
                                  echo=say)
    say(f"  {fleet['large']['events']} events at {large_fleet} VMs "
        f"(event ratio {fleet['event_ratio']:.2f}, wall "
        f"x{fleet['wall_ratio']:.2f})")

    say(f"sharded fleet: {preset['shard_vms']} VMs over "
        f"{preset['shard_markets']} markets, shards "
        f"{preset['shard_counts']} ...")
    shard = measure_sharded_fleet(vms=preset["shard_vms"],
                                  days=preset["shard_days"], seed=seed,
                                  markets=preset["shard_markets"],
                                  shard_counts=preset["shard_counts"],
                                  echo=say)
    say(f"  single {shard['single']['wall_s']:.2f}s vs "
        f"{shard['sharded']['shards']} shards "
        f"{shard['sharded']['wall_s']:.2f}s (x{shard['speedup']:.2f}), "
        f"bit-identical: {shard['bit_identical']}")

    say(f"fleet mix: {preset['fleet_mix_classes']} classes at "
        f"{large_fleet} VMs, {preset['fleet_days']:.0f} days ...")
    fleet_mix = measure_fleet_mix(
        vms=large_fleet, days=preset["fleet_days"], seed=seed,
        classes=preset["fleet_mix_classes"], baseline=fleet["large"],
        digest_vms=preset["shard_vms"],
        digest_markets=preset["shard_markets"],
        shard_counts=preset["shard_counts"], echo=say)
    say(f"  {fleet_mix['mixed']['events']} events over "
        f"{fleet_mix['mixed']['flush_cohorts']} cohorts (event ratio "
        f"{fleet_mix['event_ratio']:.2f}, wall "
        f"x{fleet_mix['wall_ratio']:.2f}), bit-identical: "
        f"{fleet_mix['bit_identical']}")

    say(f"portfolio drive: {preset['index_days']:.0f} days, "
        f"{preset['index_vms']} VMs, 1P-M vs IT-0.125 ...")
    index = measure_index_drive(days=preset["index_days"], seed=seed,
                                vms=preset["index_vms"])
    say(f"  {index['portfolio']['delivered']} of "
        f"{index['portfolio']['points']} points delivered "
        f"({100 * index['delivered_fraction']:.2f}%), "
        f"{index['extra_delivered']} over the 1P-M baseline")

    say(f"cell: 1P-M/spotcheck-lazy, {preset['cell_days']:.0f} days, "
        f"{preset['cell_vms']} VMs ...")
    cell = measure_cell(seed=seed, days=preset["cell_days"],
                        vms=preset["cell_vms"])
    say(f"  {cell['wall_s']:.2f}s")

    grid_shape = (f"{len(preset['policies'])}x{len(preset['mechanisms'])} "
                  f"grid, {preset['days']:.0f} days, {preset['vms']} VMs, "
                  f"{preset['workers']} workers")
    say(f"grid: serial vs parallel vs warm ({grid_shape}) ...")
    grid = measure_grid(policies=preset["policies"],
                        mechanisms=preset["mechanisms"], seed=seed,
                        days=preset["days"], vms=preset["vms"],
                        workers=preset["workers"])
    say(f"  serial {grid['serial_wall_s']:.2f}s  parallel "
        f"{grid['parallel_wall_s']:.2f}s (x{grid['speedup']:.2f})  warm "
        f"{grid['warm_wall_s']:.2f}s (x{grid['warm_speedup']:.2f})")

    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "smoke": bool(smoke),
        "created_unix": time.time(),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "kernel": kernel,
        "market": market,
        "traffic": traffic,
        "fleet": fleet,
        "fleet_mix": fleet_mix,
        "shard": shard,
        "index": index,
        "cell": cell,
        "grid": grid,
    }


def bench_filename(label):
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in label)
    return f"BENCH_{safe}.json"


def write_bench(payload, out_dir="."):
    """Validate and write ``BENCH_<label>.json``; returns the path."""
    validate_bench(payload)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(payload["label"]))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _require(payload, dotted, kinds):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"bench payload missing {dotted!r}")
        node = node[part]
    if not isinstance(node, kinds) or isinstance(node, bool):
        raise ValueError(
            f"bench payload field {dotted!r} has type "
            f"{type(node).__name__}, expected {kinds}")
    return node


def validate_bench(payload):
    """Check a payload against the ``repro-bench/7`` schema.

    Raises ``ValueError`` on any missing field, wrong type, or
    non-positive timing; returns the payload for chaining.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a dict")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unknown bench schema {payload.get('schema')!r}, "
            f"expected {BENCH_SCHEMA!r}")
    _require(payload, "label", str)
    if not isinstance(payload.get("smoke"), bool):
        raise ValueError("bench payload field 'smoke' must be a bool")
    _require(payload, "created_unix", (int, float))
    _require(payload, "host.cpu_count", int)
    for field in ("kernel.events", "kernel.wall_s", "kernel.events_per_sec",
                  "market.trace_points", "market.events_eliminated",
                  "market.stepped.wall_s", "market.stepped.delivered",
                  "market.stepped.events_per_sec",
                  "market.indexed.wall_s", "market.indexed.delivered",
                  "market.indexed.events_per_sec",
                  "traffic.low.users", "traffic.low.requests",
                  "traffic.low.wakes", "traffic.low.segments",
                  "traffic.low.wall_s",
                  "traffic.high.users", "traffic.high.requests",
                  "traffic.high.wakes", "traffic.high.segments",
                  "traffic.high.wall_s",
                  "fleet.small.vms", "fleet.small.events",
                  "fleet.small.events_per_vm_hour", "fleet.small.wall_s",
                  "fleet.small.boot_wall_s", "fleet.small.steady_wall_s",
                  "fleet.small.flush_cohorts", "fleet.small.flush_flows",
                  "fleet.small.spare_wakes", "fleet.small.spare_polls",
                  "fleet.large.vms", "fleet.large.events",
                  "fleet.large.events_per_vm_hour", "fleet.large.wall_s",
                  "fleet.large.boot_wall_s", "fleet.large.steady_wall_s",
                  "fleet.large.flush_cohorts", "fleet.large.flush_flows",
                  "fleet.large.spare_wakes", "fleet.large.spare_polls",
                  "fleet_mix.classes", "fleet_mix.vms", "fleet_mix.days",
                  "fleet_mix.homogeneous.events",
                  "fleet_mix.homogeneous.steady_wall_s",
                  "fleet_mix.mixed.events", "fleet_mix.mixed.classes",
                  "fleet_mix.mixed.steady_wall_s",
                  "fleet_mix.mixed.flush_cohorts",
                  "fleet_mix.mixed.flush_flows",
                  "fleet_mix.single.shards", "fleet_mix.single.events",
                  "fleet_mix.sharded.shards", "fleet_mix.sharded.events",
                  "shard.vms", "shard.markets", "shard.days",
                  "shard.single.shards", "shard.single.wall_s",
                  "shard.single.events",
                  "shard.sharded.shards", "shard.sharded.wall_s",
                  "shard.sharded.events",
                  "index.baseline.points", "index.baseline.delivered",
                  "index.baseline.wall_s",
                  "index.portfolio.points", "index.portfolio.delivered",
                  "index.portfolio.rearms", "index.portfolio.wall_s",
                  "index.portfolio.crossings",
                  "index.portfolio.rebalance_moves",
                  "index.delivered_fraction",
                  "cell.wall_s", "cell.market_drive.points",
                  "cell.market_drive.wakes", "cell.market_drive.delivered",
                  "cell.market_drive.rearms",
                  "cell.market_drive.stale_skips",
                  "grid.cells", "grid.serial_wall_s",
                  "grid.parallel_wall_s", "grid.warm_wall_s", "grid.speedup",
                  "grid.warm_speedup", "grid.workers",
                  "grid.parallel_plan.requested", "grid.parallel_plan.planned",
                  "grid.cache.misses",
                  "grid.cache.memory_hits", "grid.cache.disk_hits",
                  "grid.cache.executed", "grid.cache.warm_disk_hits",
                  "grid.cache.warm_misses"):
        value = _require(payload, field, (int, float))
        if value < 0:
            raise ValueError(f"bench payload field {field!r} is negative")
    _require(payload, "grid.parallel_plan.reason", str)
    for field in ("kernel.events_per_sec", "grid.speedup",
                  "grid.warm_speedup", "market.event_reduction",
                  "market.speedup", "cell.market_drive.event_reduction",
                  "market.stepped.events_per_sec",
                  "market.indexed.events_per_sec",
                  "traffic.request_ratio", "traffic.wake_ratio",
                  "fleet.event_ratio", "fleet.wall_ratio",
                  "fleet_mix.event_ratio", "fleet_mix.wall_ratio",
                  "shard.speedup"):
        if _require(payload, field, (int, float)) <= 0:
            raise ValueError(f"bench payload field {field!r} must be > 0")
    _require(payload, "shard.digest", str)
    if not isinstance(payload["shard"].get("bit_identical"), bool):
        raise ValueError(
            "bench payload field 'shard.bit_identical' must be a bool")
    _require(payload, "fleet_mix.digest", str)
    if not isinstance(payload["fleet_mix"].get("bit_identical"), bool):
        raise ValueError(
            "bench payload field 'fleet_mix.bit_identical' must be a bool")
    return payload


def check_bench_floors(payload,
                       kernel_floor=KERNEL_EVENTS_PER_SEC_FLOOR,
                       market_floor=MARKET_EVENTS_PER_SEC_FLOOR,
                       fleet_event_ceiling=FLEET_EVENT_RATIO_CEILING,
                       fleet_wall_ceiling=FLEET_WALL_RATIO_CEILING,
                       mix_event_ceiling=FLEET_MIX_EVENT_RATIO_CEILING,
                       mix_wall_ceiling=FLEET_MIX_WALL_RATIO_CEILING,
                       index_ceiling=INDEX_DELIVERED_FRACTION_CEILING):
    """Hold kernel and market-drive throughput above absolute floors.

    The floors are deliberately generous (see the module constants) —
    this is a regression tripwire for order-of-magnitude collapses,
    not a performance leaderboard.  The indexed drive must also retire
    trace points at least as fast as the stepped one; it skips nearly
    all of them, so even equality signals the skipping is broken.
    Raises ``ValueError`` with every violation listed; returns the
    payload for chaining.
    """
    validate_bench(payload)
    problems = []
    kernel_rate = payload["kernel"]["events_per_sec"]
    if kernel_rate < kernel_floor:
        problems.append(
            f"kernel {kernel_rate:.0f} events/sec < floor {kernel_floor:.0f}")
    stepped_rate = payload["market"]["stepped"]["events_per_sec"]
    if stepped_rate < market_floor:
        problems.append(
            f"market stepped {stepped_rate:.0f} events/sec < floor "
            f"{market_floor:.0f}")
    indexed_rate = payload["market"]["indexed"]["events_per_sec"]
    if indexed_rate < stepped_rate:
        problems.append(
            f"market indexed {indexed_rate:.0f} events/sec slower than "
            f"stepped {stepped_rate:.0f} — event skipping is not skipping")
    traffic = payload["traffic"]
    if traffic["high"]["wakes"] != traffic["low"]["wakes"] or \
            traffic["high"]["segments"] != traffic["low"]["segments"]:
        problems.append(
            f"traffic engine wakes/segments scale with request volume: "
            f"{traffic['low']['wakes']}/{traffic['low']['segments']} at "
            f"{traffic['low']['users']:.0f} users vs "
            f"{traffic['high']['wakes']}/{traffic['high']['segments']} at "
            f"{traffic['high']['users']:.0f} users")
    if traffic["request_ratio"] < 100.0:
        problems.append(
            f"traffic scaling cells too close "
            f"(x{traffic['request_ratio']:.0f} request volume) to prove "
            f"volume independence")
    fleet = payload["fleet"]
    vm_ratio = fleet["large"]["vms"] / max(fleet["small"]["vms"], 1)
    if fleet["event_ratio"] >= fleet_event_ceiling:
        problems.append(
            f"fleet cell events scale with fleet size: "
            f"{fleet['small']['events']} events at "
            f"{fleet['small']['vms']} VMs vs {fleet['large']['events']} "
            f"at {fleet['large']['vms']} (ratio {fleet['event_ratio']:.1f} "
            f">= ceiling {fleet_event_ceiling:.0f})")
    if fleet["wall_ratio"] > fleet_wall_ceiling:
        problems.append(
            f"fleet cell wall clock scales with fleet size: "
            f"x{fleet['wall_ratio']:.1f} at x{vm_ratio:.0f} VMs "
            f"(ceiling x{fleet_wall_ceiling:.0f})")
    if fleet["large"]["events_per_vm_hour"] \
            >= fleet["small"]["events_per_vm_hour"]:
        problems.append(
            f"fleet cell events/VM-hour did not amortize: "
            f"{fleet['large']['events_per_vm_hour']:.3f} at "
            f"{fleet['large']['vms']} VMs >= "
            f"{fleet['small']['events_per_vm_hour']:.3f} at "
            f"{fleet['small']['vms']}")
    fleet_mix = payload["fleet_mix"]
    if fleet_mix["mixed"]["flush_cohorts"] < fleet_mix["classes"]:
        problems.append(
            f"fleet mix cell formed only "
            f"{fleet_mix['mixed']['flush_cohorts']} cohorts for "
            f"{fleet_mix['classes']} workload classes — the population "
            f"is not heterogeneous, so the ratchet proves nothing")
    if fleet_mix["event_ratio"] > mix_event_ceiling:
        problems.append(
            f"heterogeneous fleet cell events scale with plan count: "
            f"{fleet_mix['mixed']['events']} events over "
            f"{fleet_mix['classes']} classes vs "
            f"{fleet_mix['homogeneous']['events']} homogeneous "
            f"(ratio {fleet_mix['event_ratio']:.2f} > ceiling "
            f"{mix_event_ceiling:.1f})")
    if fleet_mix["wall_ratio"] > mix_wall_ceiling:
        problems.append(
            f"heterogeneous fleet cell wall clock scales with plan "
            f"count: x{fleet_mix['wall_ratio']:.1f} over "
            f"{fleet_mix['classes']} classes (ceiling "
            f"x{mix_wall_ceiling:.0f})")
    if fleet_mix["bit_identical"] is not True:
        problems.append(
            f"mixed fleet cell is not bit-identical across shard "
            f"counts ({fleet_mix['sharded']['shards']} shards) — the "
            f"checkpoint scheduler leaked host or shard identity into "
            f"the simulation")
    if fleet_mix["single"]["events"] != fleet_mix["sharded"]["events"]:
        problems.append(
            f"mixed sharded cell event totals diverge: "
            f"{fleet_mix['single']['events']} single-process vs "
            f"{fleet_mix['sharded']['events']} at "
            f"{fleet_mix['sharded']['shards']} shards")
    shard = payload["shard"]
    if shard["bit_identical"] is not True:
        problems.append(
            f"sharded fleet cell is not bit-identical to the "
            f"single-process cell at {shard['sharded']['shards']} shards "
            f"({shard['vms']} VMs over {shard['markets']} markets) — the "
            f"mailbox merge or a per-market seed leaked process identity")
    if shard["single"]["events"] != shard["sharded"]["events"]:
        problems.append(
            f"sharded fleet cell event totals diverge: "
            f"{shard['single']['events']} single-process vs "
            f"{shard['sharded']['events']} at "
            f"{shard['sharded']['shards']} shards")
    index = payload["index"]
    if index["delivered_fraction"] >= index_ceiling:
        problems.append(
            f"portfolio cell delivered "
            f"{index['portfolio']['delivered']} of "
            f"{index['portfolio']['points']} trace points "
            f"({index['delivered_fraction']:.3f} >= ceiling "
            f"{index_ceiling}) — rebalancing reintroduced the "
            f"per-point market drive")
    if problems:
        raise ValueError("; ".join(problems))
    return payload


def validate_bench_file(path):
    """Load and validate one ``BENCH_*.json``; returns the payload."""
    with open(path) as handle:
        return validate_bench(json.load(handle))

"""Figures 10-12: the policy x mechanism grid.

The paper runs each Table 2 policy under four migration mechanisms over
six months of spot prices, reporting average cost per VM-hour
(Figure 10), unavailability (Figure 11), and time under degraded
performance (Figure 12).  One :func:`run_grid` call produces all three
views from the same set of simulations, with the trace archive shared
across cells so every cell sees identical prices.

Cells are cached at three tiers: a bounded in-process LRU (fast
repeats inside one run), an optional on-disk summary cache keyed by a
stable config hash (``cache_dir=...`` — repeated ``repro report`` runs
skip completed cells), and the shared trace archive itself.  With
``workers=N`` the grid fans out across processes via
:mod:`repro.experiments.parallel`; parallel results are identical to
serial ones (same RNG streams, same archive bytes).
"""

import os
import tempfile
from collections import OrderedDict

from repro.experiments.parallel import (
    CellDiskCache,
    archive_hash,
    run_cells_parallel,
)
from repro.experiments.scenario import (
    MECHANISMS,
    POLICIES,
    PolicySimulation,
    ScenarioConfig,
)
from repro.traces.calibration import M3_MARKET_PARAMS

#: In-memory cache bounds.  Cell summaries are small dicts, but trace
#: archives hold six months of prices per market — keep only a few.
MAX_CACHED_CELLS = 256
MAX_CACHED_ARCHIVES = 4

#: Below this many uncached cells, process fan-out costs more than it
#: buys (interpreter + archive load per worker) and the grid runs the
#: cells inline instead.
MIN_PARALLEL_CELLS = 4


def plan_workers(requested, pending_cells, cpu_count=None):
    """Decide how many processes a grid batch should actually use.

    Returns ``(workers, reason)`` where reason is one of
    ``serial-requested``, ``single-cpu``, ``small-batch``, or
    ``parallel``.  An early grid benchmark measured a 20-cell grid
    at speedup 0.995: executor startup swallowed the win on a host
    where ``os.cpu_count()`` was 1 (host-time measurements of the
    grid now come from ``perfbench/``).  Planning the worker count from
    the pending-cell count and the host avoids that overhead and
    records why, so a flat speedup in a bench artifact is explained
    rather than mysterious.  Small batches stay serial by design.
    """
    cpu = os.cpu_count() if cpu_count is None else cpu_count
    if requested is None or requested <= 1:
        return 1, "serial-requested"
    if cpu is not None and cpu <= 1:
        return 1, "single-cpu"
    if pending_cells < MIN_PARALLEL_CELLS:
        return 1, "small-batch"
    return min(requested, pending_cells), "parallel"

_CACHE = OrderedDict()
_ARCHIVES = OrderedDict()


def clear_caches():
    """Drop every in-memory cell summary and trace archive.

    The Table 1 latency fits (``fit_latency_sampler``) and the
    dirty-budget interval solve (``MemoryModel.interval_for_dirty_bytes``)
    are memoized too, but are deliberately left alone: they are pure
    functions of frozen inputs, so their entries cannot go stale.
    """
    _CACHE.clear()
    _ARCHIVES.clear()


def _freeze(value):
    """A hashable, order-stable stand-in for any override value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((repr(v) for v in value)))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _remember(cache, key, value, bound):
    """LRU insert: newest at the end, evict from the front."""
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > bound:
        cache.popitem(last=False)


def cell_key(policy, mechanism, seed, days, vms, overrides):
    """The in-memory cache key for one cell (robust to dict/list/None
    override values — anything unhashable is frozen or repr'd)."""
    return (policy, mechanism, seed, days, vms,
            tuple(sorted((k, _freeze(v)) for k, v in overrides.items())))


def _count(metrics, name, amount=1, **labels):
    if metrics is not None:
        metrics.counter(name, **labels).inc(amount)


def run_cell(policy, mechanism, seed=11, days=183.0, vms=40, archive=None,
             cache_dir=None, metrics=None, **overrides):
    """Run (or fetch from cache) one grid cell's summary.

    ``cache_dir`` adds a persistent on-disk tier keyed by a stable
    config hash; ``metrics`` (a :class:`repro.obs.MetricsRegistry`)
    receives ``grid_cache_hits_total`` / ``grid_cache_misses_total`` /
    ``grid_cells_executed_total`` counters.
    """
    key = cell_key(policy, mechanism, seed, days, vms, overrides)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        _count(metrics, "grid_cache_hits_total", tier="memory")
        return cached
    config = ScenarioConfig(policy=policy, mechanism=mechanism, seed=seed,
                            days=days, vms=vms, **overrides)
    disk = CellDiskCache(cache_dir) if cache_dir else None
    if disk is not None:
        summary = disk.get(config)
        if summary is not None:
            _count(metrics, "grid_cache_hits_total", tier="disk")
            _remember(_CACHE, key, summary, MAX_CACHED_CELLS)
            return summary
    _count(metrics, "grid_cache_misses_total")
    if archive is None:
        archive = shared_archive(seed, days, zones=config.zones,
                                 market_params=config.market_params)
    summary = PolicySimulation(config, archive=archive).run()
    _count(metrics, "grid_cells_executed_total", mode="serial")
    if disk is not None:
        disk.put(config, summary)
    _remember(_CACHE, key, summary, MAX_CACHED_CELLS)
    return summary


def shared_archive(seed, days, zones=1, market_params=None):
    """One trace archive per market set, shared by every cell."""
    params = market_params or M3_MARKET_PARAMS
    key = archive_hash(seed, days, zones, params)
    archive = _ARCHIVES.get(key)
    if archive is None:
        archive = PolicySimulation.build_archive(
            seed, days * 24 * 3600.0, market_params=params, zones=zones)
        _remember(_ARCHIVES, key, archive, MAX_CACHED_ARCHIVES)
    else:
        _ARCHIVES.move_to_end(key)
    return archive


def run_grid(policies=POLICIES, mechanisms=MECHANISMS, seed=11, days=183.0,
             vms=40, workers=1, cache_dir=None, metrics=None, **overrides):
    """The full grid: {(policy, mechanism): summary}.

    ``workers > 1`` fans the uncached cells out across processes; the
    shared trace archive is generated once in the parent, written to an
    ``.npz``, and loaded once per worker.  Results are identical to the
    serial path.
    """
    cells = [(policy, mechanism)
             for policy in policies for mechanism in mechanisms]
    if workers is None or workers <= 1 or len(cells) <= 1:
        return {cell: run_cell(cell[0], cell[1], seed=seed, days=days,
                               vms=vms, cache_dir=cache_dir, metrics=metrics,
                               **overrides)
                for cell in cells}
    return _run_grid_parallel(cells, seed, days, vms, workers, cache_dir,
                              metrics, overrides)


def _run_grid_parallel(cells, seed, days, vms, workers, cache_dir, metrics,
                       overrides):
    if metrics is not None:
        metrics.gauge("grid_workers").set(workers)
    disk = CellDiskCache(cache_dir) if cache_dir else None
    results = {}
    pending = []
    for policy, mechanism in cells:
        key = cell_key(policy, mechanism, seed, days, vms, overrides)
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _count(metrics, "grid_cache_hits_total", tier="memory")
            results[(policy, mechanism)] = cached
            continue
        config = ScenarioConfig(policy=policy, mechanism=mechanism,
                                seed=seed, days=days, vms=vms, **overrides)
        if disk is not None:
            summary = disk.get(config)
            if summary is not None:
                _count(metrics, "grid_cache_hits_total", tier="disk")
                _remember(_CACHE, key, summary, MAX_CACHED_CELLS)
                results[(policy, mechanism)] = summary
                continue
        _count(metrics, "grid_cache_misses_total")
        pending.append(((policy, mechanism), key, config))
    if not pending:
        return results

    planned, reason = plan_workers(workers, len(pending))
    if metrics is not None:
        metrics.gauge("grid_planned_workers").set(planned)
        _count(metrics, "grid_worker_plan_total", reason=reason)

    # All grid cells share one archive identity (same seed/days/zones/
    # market params), generated once here and loaded once per worker.
    sample = pending[0][2]
    digest = archive_hash(seed, days, sample.zones, sample.market_params)
    archive = shared_archive(seed, days, zones=sample.zones,
                             market_params=sample.market_params)

    if planned <= 1:
        for (cell, key, config) in pending:
            summary = PolicySimulation(config, archive=archive).run()
            _count(metrics, "grid_cells_executed_total", mode="serial")
            if disk is not None:
                disk.put(config, summary)
            _remember(_CACHE, key, summary, MAX_CACHED_CELLS)
            results[cell] = summary
        return results

    def _dispatch(archive_path):
        if not os.path.exists(archive_path):
            archive.save_npz(archive_path)
        return run_cells_parallel(
            [config for _cell, _key, config in pending], planned,
            archive_path=archive_path)

    if cache_dir:
        summaries = _dispatch(
            os.path.join(cache_dir, "archives", f"{digest}.npz"))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-grid-") as tmp:
            summaries = _dispatch(os.path.join(tmp, f"{digest}.npz"))

    for ((cell, key, config), summary) in zip(pending, summaries):
        _count(metrics, "grid_cells_executed_total", mode="parallel")
        if disk is not None:
            disk.put(config, summary)
        _remember(_CACHE, key, summary, MAX_CACHED_CELLS)
        results[cell] = summary
    return results


def figure10_rows(results):
    """Average cost per VM-hour, one row per policy."""
    return _pivot(results, "cost_per_vm_hour")


def figure11_rows(results):
    """Unavailability %, one row per policy."""
    return _pivot(results, "unavailability_pct")


def figure12_rows(results):
    """Degraded-time %, one row per policy."""
    return _pivot(results, "degradation_pct")


def _pivot(results, metric):
    policies = sorted({p for p, _m in results}, key=_policy_order)
    mechanisms = sorted({m for _p, m in results}, key=_mechanism_order)
    rows = []
    for policy in policies:
        row = {"policy": policy}
        for mechanism in mechanisms:
            row[mechanism] = results[(policy, mechanism)][metric]
        rows.append(row)
    return mechanisms, rows


def _policy_order(policy):
    try:
        return POLICIES.index(policy)
    except ValueError:
        return len(POLICIES)


def _mechanism_order(mechanism):
    try:
        return MECHANISMS.index(mechanism)
    except ValueError:
        return len(MECHANISMS)

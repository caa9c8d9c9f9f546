"""Outputs must not depend on when the cyclic garbage collector runs.

Several process generators have ``finally`` blocks with side effects
(migration flows, the controller's storm and spare bookkeeping, the
backup scheduler), so a collector-triggered ``close()`` of an abandoned
generator could in principle change a run.  Fleet provisioning also
pauses the collector and freezes the booted fleet.  Each cell below
runs three ways -- default thresholds, the collector disabled
throughout, and collections every few allocations -- and must produce
the same summary and kernel event count every time.
"""

import dataclasses
import gc
import json

import pytest

from repro.core.shard import MarketSpec, ShardConfig
from repro.core.shard.market import MarketSimulation
from repro.core.shard.messages import ProvisionRequest
from repro.experiments.chaos import chaos_digest, default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.experiments.sla_chaos import default_traffic_mix
from repro.obs import Observability
from repro.workloads import default_fleet_mix

CHAOS_DAYS = 7.0
FLEET_VMS = 2_000
FLEET_DAYS = 1.0

MODES = ("default", "disabled", "aggressive")


def canonical(value):
    """Canonical JSON: NaN-safe equality for nested summaries."""
    return json.dumps(value, sort_keys=True, default=repr)


def in_gc_mode(mode, cell):
    """Run ``cell()`` under one collector mode; restore the GC after."""
    enabled = gc.isenabled()
    thresholds = gc.get_threshold()
    try:
        if mode == "disabled":
            gc.disable()
        elif mode == "aggressive":
            gc.enable()
            gc.set_threshold(20, 2, 2)
        return cell()
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()
        else:
            gc.disable()


def chaos_cell():
    """A short chaos-sla cell: faults, SLA traffic and obs on 4P-COST."""
    config = ScenarioConfig(policy="4P-COST", seed=11, days=CHAOS_DAYS,
                            vms=4, faults=default_chaos_plan(),
                            traffic=default_traffic_mix(CHAOS_DAYS))
    obs = Observability()
    summary, controller = PolicySimulation(config).run(
        return_controller=True, obs=obs)
    return {"summary": canonical(summary),
            "golden": canonical(chaos_digest(obs, summary)),
            "events": controller.env.events_processed,
            # The cell is only a witness if its generators do work.
            "busy": summary["faults_injected"] > 0
            and summary["migrations"] > 0}


def fleet_cell():
    """A small mixed fleet on one calm market, booted in bulk."""
    config = ShardConfig(days=FLEET_DAYS,
                         workload_mix=default_fleet_mix(classes=8))
    market = MarketSimulation(MarketSpec(), config, 0, FLEET_VMS)
    market.apply(ProvisionRequest(market=0, count=FLEET_VMS))
    market.run_until(config.duration_s)
    report = market.finalize()
    return {"report": canonical(dataclasses.asdict(report)),
            "events": report.events_processed,
            "busy": report.vms == FLEET_VMS
            and report.flush["flows_issued"] > 0}


@pytest.mark.parametrize("cell", [chaos_cell, fleet_cell],
                         ids=["chaos-sla", "fleet-mix"])
def test_outputs_do_not_depend_on_collector_timing(cell):
    runs = {mode: in_gc_mode(mode, cell) for mode in MODES}
    assert runs["default"]["busy"]
    assert runs["disabled"] == runs["default"]
    assert runs["aggressive"] == runs["default"]

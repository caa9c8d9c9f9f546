"""``SpotCheckController.deploy``, the one stack builder behind both
entry points: ``PolicySimulation.run`` and ``MarketSimulation``."""

from pathlib import Path

import pytest

import repro
from repro.core.shard import MarketSimulation, MarketSpec, ShardConfig
from repro.core.shard.messages import ProvisionRequest
from repro.experiments.chaos import default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.faults import FaultPlan


def policy_cell(faults, days):
    summary, controller = PolicySimulation(ScenarioConfig(
        days=days, vms=4, faults=faults)).run(return_controller=True)
    return controller, summary


def market_cell(faults, days):
    sim = MarketSimulation(MarketSpec(), ShardConfig(
        seed=3, days=days, faults=faults, steady_checkpoint_flush=False),
        0, 4)
    sim.apply(ProvisionRequest(market=0, count=4))
    sim.run_until(days * 24 * 3600.0)
    return sim.controller, sim.finalize().summary


@pytest.mark.parametrize("cell", [policy_cell, market_cell])
def test_chaos_plan_gets_injector_and_crash_driver(cell):
    controller, _summary = cell(default_chaos_plan(), 10.5)
    assert controller.api.faults is not None
    assert controller.backup_failures == 1  # the plan's day-10 crash


@pytest.mark.parametrize("cell", [policy_cell, market_cell])
@pytest.mark.parametrize("faults", [None, FaultPlan()])
def test_disabled_plan_builds_no_injector(cell, faults):
    controller, summary = cell(faults, 1.0)
    assert controller.api.faults is None
    assert "faults_injected" not in summary


def test_only_deploy_constructs_the_controller():
    """No module under ``src/`` or ``tests/`` (this one aside) wires a
    controller stack by hand."""
    here = Path(__file__).resolve()
    roots = (Path(repro.__file__).parent, here.parents[1])
    assert [path.name for root in roots for path in root.rglob("*.py")
            if path.resolve() != here
            and "SpotCheckController(" in path.read_text()] == []

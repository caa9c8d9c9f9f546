"""Predictive runs pinned against digests of an earlier version.

No benchmark workload turns on ``predictive_migration``, so nothing
else holds the predictive drain's outputs still while the market drive
underneath it changes.  Each cell's summary (in a canonical form: sorted
keys, floats by ``repr``) and its kernel ``events_processed`` are
compared with values recorded before the revocation predictor moved
from a per-point step listener to an unbounded :class:`PriceWatch`.
"""

import hashlib
import json

import pytest

from repro.experiments.scenario import PolicySimulation, ScenarioConfig

#: name -> ScenarioConfig overrides; all cells run 10 days, 6 VMs,
#: seed 1 with the predictor on.  4P-COST reads the pool price window,
#: the ``multiple`` bid opens the proactive band, and IT registers its
#: portfolio watches after the controller's.
CELLS = {
    "2P-ML": dict(policy="2P-ML"),
    "4P-COST": dict(policy="4P-COST"),
    "4P-COST-proactive-multiple": dict(policy="4P-COST", proactive=True,
                                       bid_policy="multiple"),
    "IT": dict(policy="IT"),
}

#: (summary sha256, events_processed) per cell, recorded before the
#: step-listener tier was removed (numpy 2.4, x86-64 glibc).
PINNED = {
    "2P-ML": (
        "1ad47f9141ed8cff5cc16f2e1d992f23f0c8880b30f6c0bfee8ef6802fa50d1b",
        12366),
    "4P-COST": (
        "5ea1b2eed8d52ae630efab091797697670e9c51a0f1554ac87d3cdf2026682d7",
        14905),
    "4P-COST-proactive-multiple": (
        "21aa9c11e5f7edf70ac324fa87949c1646789d98f14dd18d75c87596f15f0766",
        14604),
    "IT": (
        "9795c87e5a278ed3159bf96c500c9c0386baef1fff5bb73f0f60fb901187655b",
        12665),
}


def canonical(value):
    """Plain JSON data for ``value``; floats as exact ``repr`` text."""
    if isinstance(value, dict):
        items = sorted((k if isinstance(k, str) else repr(k), canonical(v))
                       for k, v in value.items())
        return dict(items)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return canonical(value.tolist())
    if isinstance(value, float):
        return repr(value)
    return value


def run_cell(name):
    config = ScenarioConfig(seed=1, days=10.0, vms=6, predictive=True,
                            **CELLS[name])
    summary, controller = PolicySimulation(config).run(
        return_controller=True)
    text = json.dumps(canonical(summary), sort_keys=True)
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            controller.env.events_processed,
            controller.predictor.stats.signals)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_predictive_cell_is_pinned(name):
    digest, events, signals = run_cell(name)
    assert signals > 0, "the cell must exercise the predictive drain"
    assert (digest, events) == PINNED[name]

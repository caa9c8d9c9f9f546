"""Digest canonicalization and the output check built on it."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"),
                os.path.dirname(HERE)]

from canon import canonical, digest  # noqa: E402
from cell import check  # noqa: E402


def test_numpy_scalars_match_python_scalars():
    assert digest({"a": np.float64(0.1), "n": np.int64(3)}) == \
        digest({"a": 0.1, "n": 3})
    assert digest([np.bool_(True)]) == digest([True])


def test_float_keys_are_exact_and_sorted():
    value = {0.75: 1.0, 0.25: 2.0, 1: 3.0}
    assert list(canonical(value)) == sorted(canonical(value))
    assert digest(value) == digest(dict(reversed(list(value.items()))))
    assert digest({0.1: 1.0}) != digest({np.nextafter(0.1, 1.0): 1.0})
    assert digest({0.1: 1.0}) != digest({"0.1": 1.0})


def test_floats_keep_every_digit():
    x = 0.1 + 0.2
    assert digest({"x": x}) != digest({"x": np.nextafter(x, 1.0)})
    assert digest({"x": 1.0}) != digest({"x": 1})


def test_tuples_lists_and_arrays():
    assert digest((1.5, 2)) == digest([1.5, 2])
    assert digest(np.array([1.0, 2.0])) == digest([1.0, 2.0])


def test_colliding_keys_rejected():
    with pytest.raises(ValueError):
        canonical({1: "a", "1": "b"})


def test_unknown_types_rejected():
    with pytest.raises(TypeError):
        canonical({"f": object()})


def test_check_counts_missing_and_altered_cells():
    expected = {"a": "1", "b": "2"}
    assert check(expected, {"a": "1", "b": "2"}) == (2, [])
    assert check(expected, {"a": "1", "b": "3"}) == (2, ["b"])
    assert check(expected, {"a": "1"}) == (2, ["b"])
    assert check({}, {"a": "1"}) == (1, ["a"])


def test_altered_simulated_output_fails_the_check():
    """A real cell's digest moves when any output value is altered."""
    from repro.experiments.scenario import PolicySimulation, ScenarioConfig

    summary = PolicySimulation(ScenarioConfig(
        policy="4P-COST", seed=1, days=1.0, vms=2)).run()
    expected = {"cell": digest(summary)}
    assert check(expected, {"cell": digest(summary)}) == (1, [])
    for key, value in summary.items():
        if isinstance(value, (bool, str, dict)):
            continue
        altered = dict(summary)
        altered[key] = np.nextafter(value, np.inf) \
            if isinstance(value, float) else value + 1
        assert check(expected, {"cell": digest(altered)}) == (1, ["cell"]), key
    altered = dict(summary, cost_breakdown=dict(summary["cost_breakdown"]))
    first = sorted(altered["cost_breakdown"])[0]
    altered["cost_breakdown"][first] *= 1.0 + 1e-12
    assert check(expected, {"cell": digest(altered)}) == (1, ["cell"])

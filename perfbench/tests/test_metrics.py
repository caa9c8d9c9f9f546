"""Metric names: valid, declared once, and exactly what the runner emits."""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from layers import SPAN_LAYERS  # noqa: E402
from run import END_TO_END, layer_metrics  # noqa: E402
from workloads import SIM_SEEDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return json.load(f)


def test_names_and_units_are_valid_and_unique():
    data = spec()
    names = [w["name"] for w in data["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in data[group]:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))


def test_workloads_match_the_runner():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    assert set(SIM_SEEDS) == set(WORKLOADS)
    for workload in data["workloads"]:
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_end_to_end_metrics_match_the_runner():
    data = spec()
    declared = {m["name"]: m for m in data["end_to_end"]}
    assert set(declared) == set(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in declared.values())
    setup = declared["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared.values())


def test_per_layer_metrics_match_the_runner():
    zero_span = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    sample = {
        "checked": 3.0, "spawned": 0.0, "setup_s": 1.0, "boot_s": 0.5,
        "vm_hours": 10.0, "run_s": 1.5, "peak_rss_kib": 1024,
        "speed_scale": 1.0,
        "counters": {}, "spans": {layer: dict(zero_span)
                                  for layer in SPAN_LAYERS},
    }
    emitted = layer_metrics(sample, json.loads(json.dumps(sample)))
    declared = {m["name"] for m in spec()["per_layer"]}
    assert set(emitted) == declared

"""The reproducibility contract: same seed + same config produces
byte-identical observability output.

Object ids (``nvm-*``, ``i-*``, ``vol-*``) come from process-global
counters, so the guarantee — and therefore this test — is across fresh
interpreter processes, which is exactly how two operators comparing
runs would invoke the CLI.
"""

import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")


def run_simulate(out_dir, seed=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--days", "4",
         "--vms", "4", "--seed", str(seed), "--obs-dir", out_dir],
        check=True, env=env, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    first, second = str(base / "a"), str(base / "b")
    run_simulate(first)
    run_simulate(second)
    return first, second


class TestDeterminism:
    def test_event_logs_are_byte_identical(self, twin_runs):
        first, second = twin_runs
        a = open(os.path.join(first, "events.jsonl"), "rb").read()
        b = open(os.path.join(second, "events.jsonl"), "rb").read()
        assert a, "expected a non-empty event log"
        assert a == b

    def test_metrics_are_byte_identical(self, twin_runs):
        first, second = twin_runs
        a = open(os.path.join(first, "metrics.prom"), "rb").read()
        b = open(os.path.join(second, "metrics.prom"), "rb").read()
        assert a == b

    def test_traces_are_byte_identical(self, twin_runs):
        first, second = twin_runs
        a = open(os.path.join(first, "traces.txt"), "rb").read()
        b = open(os.path.join(second, "traces.txt"), "rb").read()
        assert a == b

    def test_different_seed_changes_the_log(self, twin_runs, tmp_path):
        first, _second = twin_runs
        other = str(tmp_path / "other")
        run_simulate(other, seed=2)
        a = open(os.path.join(first, "events.jsonl"), "rb").read()
        b = open(os.path.join(other, "events.jsonl"), "rb").read()
        assert a != b


#: An observed chaos + traffic cell: 4P-COST for 7 days on 4 VMs
#: under the default chaos plan and traffic mix.  Run in a fresh
#: interpreter (the id counters are process-global); prints one
#: ``name sha256`` line per exported file.
PINNED_CELL = """
import hashlib, os, sys
from repro.experiments.chaos import default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.experiments.sla_chaos import default_traffic_mix
from repro.obs import Observability

config = ScenarioConfig(policy="4P-COST", seed=1, days=7.0, vms=4,
                        faults=default_chaos_plan(),
                        traffic=default_traffic_mix(7.0))
obs = Observability()
PolicySimulation(config).run(obs=obs)
obs.write_dir(sys.argv[1])
for name in ("events.jsonl", "metrics.prom", "traces.txt"):
    with open(os.path.join(sys.argv[1], name), "rb") as handle:
        print(name, hashlib.sha256(handle.read()).hexdigest())
"""

#: The cell's export digests, recorded before the SLA shape memo and
#: the fused P² kernel existed (numpy 2.4, scipy 1.17, x86-64 glibc).
#: Any code change that moves one byte of the export breaks this pin.
PINNED_DIGESTS = {
    "events.jsonl":
        "ebca68393884160953e04b6883ec96f02fd78b11cee3d297cd45563da70a6c39",
    "metrics.prom":
        "46ba09732c958b185848689334b5141d61be21539a744b0faa87054fad5724d6",
    "traces.txt":
        "2e4bf2edd9721b87c6cfb0f15548a8013f320fc685dabb37726aacd4dce19749",
}


class TestPinnedExport:
    """Twin runs of one code version cannot catch a kernel that drifts;
    this pins the observed export against digests of an earlier
    version."""

    def test_chaos_traffic_cell_export_is_pinned(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", PINNED_CELL, str(tmp_path)],
            check=True, env=env, capture_output=True, text=True,
            timeout=300)
        digests = dict(line.split() for line in result.stdout.splitlines())
        assert digests == PINNED_DIGESTS

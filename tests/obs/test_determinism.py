"""The reproducibility contract: same seed + same config produces
byte-identical observability output.

Every object id (``nvm-*``, ``i-*``, ``vol-*``, ...) comes from the
run's :class:`~repro.sim.kernel.Environment`, so the guarantee holds
per run: twin cells in one process export the same bytes, whatever ran
between them.  The CLI twins below still run in fresh interpreters,
which is what checks independence from ``PYTHONHASHSEED``.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.experiments.chaos import default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.experiments.sla_chaos import default_traffic_mix
from repro.obs import Observability

EXPORTS = ("events.jsonl", "metrics.prom", "traces.txt")

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


def observed_export(config, out_dir):
    """Run ``config`` observed in this process; ``{file: bytes}``."""
    obs = Observability()
    PolicySimulation(config).run(obs=obs)
    obs.write_dir(str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in EXPORTS}


class TestInProcessTwins:
    """Two runs of one cell in one process export the same bytes."""

    CELL = ScenarioConfig(policy="4P-COST", seed=1, days=4.0, vms=4)

    def test_twin_cells_export_identical_bytes(self, tmp_path):
        first = observed_export(self.CELL, tmp_path / "a")
        second = observed_export(self.CELL, tmp_path / "b")
        assert first["events.jsonl"], "expected a non-empty event log"
        assert first == second

    def test_unrelated_cell_in_between_changes_nothing(self, tmp_path):
        first = observed_export(self.CELL, tmp_path / "a")
        observed_export(ScenarioConfig(policy="1P-M", seed=2, days=2.0,
                                       vms=3), tmp_path / "other")
        assert observed_export(self.CELL, tmp_path / "b") == first


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
        # An observed chaos + traffic cell: 4P-COST for 7 days on 4 VMs
        # under the default chaos plan and traffic mix.
        config = ScenarioConfig(policy="4P-COST", seed=1, days=7.0, vms=4,
                                faults=default_chaos_plan(),
                                traffic=default_traffic_mix(7.0))
        exports = observed_export(config, tmp_path)
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in exports.items()}
        assert digests == PINNED_DIGESTS

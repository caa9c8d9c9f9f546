"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "1P-M"
        assert args.mechanism == "spotcheck-lazy"
        assert args.days == 60.0

    def test_bad_bid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--bid-policy", "magic"])

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestSimulateCommand:
    def test_plain_output(self, capsys):
        code = main(["simulate", "--days", "3", "--vms", "2",
                     "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost" in out and "availability" in out

    def test_json_output(self, capsys):
        code = main(["simulate", "--days", "3", "--vms", "2",
                     "--seed", "4", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["policy"] == "1P-M"
        assert summary["state_loss_events"] == 0

    def test_knee_bid_policy_runs(self, capsys):
        code = main(["simulate", "--days", "3", "--vms", "2",
                     "--bid-policy", "knee"])
        assert code == 0

    def test_obs_dir_writes_and_summarizes(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        code = main(["simulate", "--days", "3", "--vms", "2",
                     "--seed", "4", "--obs-dir", out])
        assert code == 0
        for name in ("events.jsonl", "metrics.prom", "traces.txt"):
            assert (tmp_path / "obs" / name).exists()
        capsys.readouterr()
        code = main(["obs", "summarize", "--dir", out])
        assert code == 0
        digest = capsys.readouterr().out
        assert "events:" in digest
        assert "spot.price" in digest


class TestTracesCommand:
    def test_stats_output(self, capsys):
        code = main(["traces", "--days", "10", "--types", "m3.medium"])
        assert code == 0
        assert "m3.medium" in capsys.readouterr().out

    def test_archive_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "archive")
        code = main(["traces", "--days", "5", "--types", "m3.medium",
                     "--out", out_dir])
        assert code == 0
        from repro.traces.archive import TraceArchive
        archive = TraceArchive.load(out_dir)
        assert ("m3.medium", "us-east-1a") in archive


class TestExperimentCommand:
    def test_fast_experiment(self, capsys):
        code = main(["experiment", "fig9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "29.0" in out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "fig99"])
        assert code == 2


class TestGoldenCommands:
    @pytest.mark.parametrize("command", [
        ["chaos", "--days", "2", "--vms", "2"],
        ["sla", "--days", "2", "--vms", "2", "--policies", "1P-M"],
        ["index", "--days", "2", "--vms", "2", "--policies", "1P-M"],
    ], ids=lambda command: command[0])
    def test_json_check_golden_stdout_is_one_document(
            self, command, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        assert main(command + ["--write-golden", golden]) == 0
        capsys.readouterr()
        assert main(command + ["--json", "--check-golden", golden]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "match" in captured.err

    def test_golden_mismatch_exits_one(self, tmp_path, capsys):
        command = ["chaos", "--days", "2", "--vms", "2"]
        golden = tmp_path / "golden.json"
        assert main(command + ["--write-golden", str(golden)]) == 0
        pinned = json.loads(golden.read_text())
        pinned["retries_total"] = -1
        golden.write_text(json.dumps(pinned))
        capsys.readouterr()
        assert main(command + ["--check-golden", str(golden)]) == 1
        assert "GOLDEN MISMATCH retries_total" in capsys.readouterr().err

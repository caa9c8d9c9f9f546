"""The bench harness: schema validation and a micro end-to-end run."""

import json

import pytest

from repro.benchmarking import (
    bench_filename,
    check_bench_floors,
    run_bench,
    validate_bench,
    validate_bench_file,
    write_bench,
)
from repro.benchmarking.kernel import measure_kernel


def _minimal_payload():
    return {
        "schema": "repro-bench/7",
        "label": "unit",
        "smoke": True,
        "created_unix": 1.0,
        "host": {"cpu_count": 1, "python": "3"},
        "kernel": {"events": 10, "wall_s": 0.1, "events_per_sec": 100.0,
                   "repeats": 3},
        "market": {
            "trace_points": 100, "events_eliminated": 90,
            "event_reduction": 10.0, "speedup": 5.0,
            "stepped": {"wall_s": 0.1, "wakes": 99, "delivered": 100,
                        "events_per_sec": 1000.0},
            "indexed": {"wall_s": 0.02, "wakes": 10, "delivered": 10,
                        "rearms": 0, "stale_skips": 0,
                        "events_per_sec": 5000.0},
        },
        "traffic": {
            "days": 1.0, "seed": 7,
            "low": {"users": 1000, "requests": 1e6, "wakes": 40,
                    "segments": 60, "wall_s": 0.01},
            "high": {"users": 1000000, "requests": 1e9, "wakes": 40,
                     "segments": 60, "wall_s": 0.01},
            "request_ratio": 1000.0, "wake_ratio": 1.0,
        },
        "fleet": {
            "days": 2.0, "seed": 11,
            "small": {"vms": 10, "hosts": 2, "days": 2.0,
                      "backup_shards": 1, "events": 1000,
                      "events_per_vm_hour": 2.0, "wall_s": 0.1,
                      "boot_wall_s": 0.01, "steady_wall_s": 0.09,
                      "flush_cohorts": 1, "flush_flows": 100,
                      "spare_wakes": 0, "spare_polls": 0},
            "large": {"vms": 10000, "hosts": 1250, "days": 2.0,
                      "backup_shards": 826, "events": 1100,
                      "events_per_vm_hour": 0.002, "wall_s": 0.12,
                      "boot_wall_s": 0.02, "steady_wall_s": 0.1,
                      "flush_cohorts": 1, "flush_flows": 100,
                      "spare_wakes": 0, "spare_polls": 0},
            "event_ratio": 1.1, "wall_ratio": 1.2,
        },
        "fleet_mix": {
            "classes": 8, "vms": 10000, "days": 2.0, "seed": 11,
            "homogeneous": {"vms": 10000, "days": 2.0, "classes": 1,
                            "events": 1100, "steady_wall_s": 0.1,
                            "flush_cohorts": 1, "flush_flows": 100},
            "mixed": {"vms": 10000, "days": 2.0, "classes": 8,
                      "events": 1800, "steady_wall_s": 0.2,
                      "flush_cohorts": 8, "flush_flows": 150},
            "event_ratio": 1.6, "wall_ratio": 2.0,
            "single": {"shards": 1, "wall_s": 1.0, "events": 5000},
            "sharded": {"shards": 2, "wall_s": 0.6, "events": 5000},
            "digest": "cd" * 32, "bit_identical": True,
        },
        "shard": {
            "vms": 2000, "markets": 4, "days": 2.0, "seed": 11,
            "single": {"shards": 1, "wall_s": 1.0, "events": 5000},
            "sharded": {"shards": 2, "wall_s": 0.6, "events": 5000},
            "speedup": 1.7, "digest": "ab" * 32, "bit_identical": True,
        },
        "index": {
            "days": 2.0, "seed": 11, "vms": 4,
            "baseline": {"policy": "1P-M", "points": 400, "wakes": 2,
                         "delivered": 2, "rearms": 1, "stale_skips": 0,
                         "wall_s": 0.1, "migrations": 0,
                         "delivered_fraction": 0.005},
            "portfolio": {"policy": "IT-0.125", "points": 400, "wakes": 12,
                          "delivered": 10, "rearms": 6, "stale_skips": 0,
                          "wall_s": 0.12, "migrations": 4,
                          "delivered_fraction": 0.025,
                          "crossings": 10, "rebalance_moves": 4},
            "extra_delivered": 8, "delivered_fraction": 0.025,
        },
        "cell": {"policy": "1P-M", "mechanism": "spotcheck-lazy",
                 "seed": 11, "days": 1.0, "vms": 2, "wall_s": 0.5,
                 "market_drive": {"points": 100, "wakes": 5, "delivered": 5,
                                  "rearms": 1, "stale_skips": 0,
                                  "event_reduction": 20.0}},
        "grid": {
            "cells": 4, "workers": 2,
            "serial_wall_s": 2.0, "parallel_wall_s": 1.0,
            "warm_wall_s": 0.01, "speedup": 2.0, "warm_speedup": 200.0,
            "parallel_plan": {"requested": 2, "planned": 2,
                              "reason": "parallel"},
            "cache": {"memory_hits": 0.0, "disk_hits": 0.0, "misses": 4.0,
                      "executed": 4.0, "warm_disk_hits": 4.0,
                      "warm_misses": 0.0},
        },
    }


class TestValidation:
    def test_minimal_payload_passes(self):
        assert validate_bench(_minimal_payload()) is not None

    def test_unknown_schema_rejected(self):
        payload = _minimal_payload()
        payload["schema"] = "repro-bench/999"
        with pytest.raises(ValueError, match="schema"):
            validate_bench(payload)

    @pytest.mark.parametrize("dotted", [
        "kernel.events_per_sec", "grid.speedup", "grid.serial_wall_s",
        "grid.cache.misses", "host.cpu_count", "market.trace_points",
        "market.stepped.events_per_sec", "market.indexed.events_per_sec",
        "cell.market_drive.points", "grid.parallel_plan.planned",
        "traffic.low.wakes", "traffic.high.requests", "traffic.wake_ratio",
        "fleet.small.events", "fleet.large.events_per_vm_hour",
        "fleet.large.steady_wall_s",
        "fleet.event_ratio", "shard.vms", "shard.single.events",
        "shard.sharded.shards", "shard.speedup", "shard.digest",
        "fleet_mix.classes", "fleet_mix.mixed.events",
        "fleet_mix.mixed.flush_cohorts", "fleet_mix.homogeneous.events",
        "fleet_mix.event_ratio", "fleet_mix.sharded.events",
        "fleet_mix.digest",
        "index.portfolio.delivered",
        "index.portfolio.crossings", "index.delivered_fraction",
    ])
    def test_missing_field_rejected(self, dotted):
        payload = _minimal_payload()
        node = payload
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node[part]
        del node[leaf]
        with pytest.raises(ValueError, match=dotted.split(".")[-1]):
            validate_bench(payload)

    def test_non_numeric_timing_rejected(self):
        payload = _minimal_payload()
        payload["kernel"]["wall_s"] = "fast"
        with pytest.raises(ValueError, match="wall_s"):
            validate_bench(payload)

    def test_zero_speedup_rejected(self):
        payload = _minimal_payload()
        payload["grid"]["speedup"] = 0.0
        with pytest.raises(ValueError, match="speedup"):
            validate_bench(payload)

    def test_non_string_plan_reason_rejected(self):
        payload = _minimal_payload()
        payload["grid"]["parallel_plan"]["reason"] = 3
        with pytest.raises(ValueError, match="reason"):
            validate_bench(payload)

    def test_non_bool_bit_identical_rejected(self):
        payload = _minimal_payload()
        payload["shard"]["bit_identical"] = "yes"
        with pytest.raises(ValueError, match="bit_identical"):
            validate_bench(payload)

    def test_non_bool_mix_bit_identical_rejected(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["bit_identical"] = "yes"
        with pytest.raises(ValueError, match="bit_identical"):
            validate_bench(payload)


class TestFloors:
    def test_healthy_payload_passes(self):
        assert check_bench_floors(_minimal_payload(),
                                  kernel_floor=50.0,
                                  market_floor=50.0) is not None

    def test_kernel_floor_violation(self):
        payload = _minimal_payload()
        with pytest.raises(ValueError, match="kernel"):
            check_bench_floors(payload, kernel_floor=1e12)

    def test_market_floor_violation(self):
        payload = _minimal_payload()
        with pytest.raises(ValueError, match="market stepped"):
            check_bench_floors(payload, kernel_floor=50.0,
                               market_floor=1e12)

    def test_indexed_slower_than_stepped_rejected(self):
        payload = _minimal_payload()
        payload["market"]["indexed"]["events_per_sec"] = 1.0
        with pytest.raises(ValueError, match="not skipping"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_traffic_wakes_scaling_rejected(self):
        payload = _minimal_payload()
        payload["traffic"]["high"]["wakes"] = 41
        with pytest.raises(ValueError, match="request volume"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_traffic_cells_too_close_rejected(self):
        payload = _minimal_payload()
        payload["traffic"]["request_ratio"] = 2.0
        with pytest.raises(ValueError, match="too close"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_fleet_event_ratio_ceiling(self):
        payload = _minimal_payload()
        payload["fleet"]["event_ratio"] = 500.0
        with pytest.raises(ValueError, match="events scale with fleet"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_fleet_wall_ratio_ceiling(self):
        payload = _minimal_payload()
        payload["fleet"]["wall_ratio"] = 80.0
        with pytest.raises(ValueError, match="wall clock scales"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_fleet_per_vm_rate_must_amortize(self):
        payload = _minimal_payload()
        payload["fleet"]["large"]["events_per_vm_hour"] = 5.0
        with pytest.raises(ValueError, match="did not amortize"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_shard_bit_identity_required(self):
        payload = _minimal_payload()
        payload["shard"]["bit_identical"] = False
        with pytest.raises(ValueError, match="not bit-identical"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_shard_event_totals_must_match(self):
        payload = _minimal_payload()
        payload["shard"]["sharded"]["events"] = 5001
        with pytest.raises(ValueError, match="event totals diverge"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_mix_event_ratio_ceiling(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["event_ratio"] = 8.0
        with pytest.raises(ValueError, match="scale with plan count"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_mix_wall_ratio_ceiling(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["wall_ratio"] = 9.0
        with pytest.raises(ValueError, match="wall clock scales with plan"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_mix_must_form_one_group_per_class(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["mixed"]["flush_cohorts"] = 1
        with pytest.raises(ValueError, match="not heterogeneous"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_mix_bit_identity_required(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["bit_identical"] = False
        with pytest.raises(ValueError,
                           match="mixed fleet cell is not bit-identical"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_mix_event_totals_must_match(self):
        payload = _minimal_payload()
        payload["fleet_mix"]["sharded"]["events"] = 4999
        with pytest.raises(ValueError, match="mixed sharded cell event"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)

    def test_index_delivered_fraction_ceiling(self):
        payload = _minimal_payload()
        payload["index"]["delivered_fraction"] = 0.9
        with pytest.raises(ValueError, match="per-point market drive"):
            check_bench_floors(payload, kernel_floor=50.0, market_floor=50.0)


class TestArtifact:
    def test_write_and_validate_file(self, tmp_path):
        path = write_bench(_minimal_payload(), out_dir=str(tmp_path))
        assert path.endswith("BENCH_unit.json")
        payload = validate_bench_file(path)
        assert payload["label"] == "unit"
        # Stable, diffable serialization.
        assert json.loads((tmp_path / "BENCH_unit.json").read_text())

    def test_filename_sanitized(self):
        assert bench_filename("a/b c!") == "BENCH_a-b-c-.json"


class TestMeasurements:
    def test_kernel_bench_counts(self):
        result = measure_kernel(events=2000, repeats=1)
        assert result["events"] == 2000
        assert result["events_per_sec"] > 0
        assert result["wall_s"] > 0

    def test_run_bench_micro(self, tmp_path):
        """A miniature full pipeline: run, write, re-validate."""
        payload = run_bench(label="micro", smoke=True, days=0.5, vms=2,
                            workers=2, kernel_events=2000,
                            fleet_vms=400, fleet_days=0.5)
        path = write_bench(payload, out_dir=str(tmp_path))
        loaded = validate_bench_file(path)
        assert loaded["grid"]["cells"] == 4
        assert loaded["grid"]["cache"]["misses"] == 4.0
        assert loaded["grid"]["cache"]["warm_disk_hits"] == 4.0
        assert loaded["fleet"]["large"]["vms"] == 400
        assert loaded["fleet"]["small"]["flush_cohorts"] == 1
        assert loaded["shard"]["vms"] == 400
        assert loaded["shard"]["bit_identical"] is True
        assert loaded["shard"]["sharded"]["shards"] == 2
        assert loaded["fleet_mix"]["classes"] == 8
        assert loaded["fleet_mix"]["mixed"]["flush_cohorts"] >= 8
        assert loaded["fleet_mix"]["bit_identical"] is True
        assert loaded["fleet_mix"]["event_ratio"] < 2.0
        assert loaded["index"]["portfolio"]["policy"] == "IT-0.125"
        assert loaded["index"]["delivered_fraction"] < 0.25

"""The fleet-scale cell benchmark: events must not scale with VMs."""

import pytest

from repro.benchmarking.fleet import (
    _drive_cell,
    measure_fleet_mix,
    measure_fleet_scaling,
    measure_sharded_fleet,
)
from repro.workloads import default_fleet_mix


class TestFleetScaling:
    def test_events_flat_in_fleet_size(self):
        result = measure_fleet_scaling(small_vms=5, large_vms=200,
                                       days=0.25)
        small, large = result["small"], result["large"]
        assert small["vms"] == 5
        assert large["vms"] == 200
        # The whole homogeneous fleet forms one cohort; both cells arm
        # the same rounds, so event totals stay nearly flat.
        assert small["flush_cohorts"] == 1
        assert large["flush_cohorts"] == 1
        assert large["flush_flows"] == small["flush_flows"]
        assert result["event_ratio"] < 2.0
        assert large["events_per_vm_hour"] < small["events_per_vm_hour"]
        for cell in (small, large):
            assert cell["boot_wall_s"] > 0
            assert cell["steady_wall_s"] >= 0
            assert cell["wall_s"] == pytest.approx(
                cell["boot_wall_s"] + cell["steady_wall_s"])

    def test_spares_never_poll_on_calm_market(self):
        result = measure_fleet_scaling(small_vms=5, large_vms=40,
                                       days=0.25)
        for cell in (result["small"], result["large"]):
            assert cell["spare_wakes"] == 0
            assert cell["spare_polls"] == 0

    def test_cell_sizes_validated(self):
        with pytest.raises(ValueError):
            measure_fleet_scaling(small_vms=10, large_vms=10)


class TestShardedFleet:
    def test_sharded_bench_is_bit_identical(self):
        result = measure_sharded_fleet(vms=40, days=0.25, markets=4,
                                       shard_counts=(1, 2))
        assert result["bit_identical"] is True
        assert result["single"]["shards"] == 1
        assert result["sharded"]["shards"] == 2
        assert result["single"]["events"] == result["sharded"]["events"]
        assert result["speedup"] > 0
        assert len(result["digest"]) == 64

    def test_shard_counts_validated(self):
        with pytest.raises(ValueError, match="single-process"):
            measure_sharded_fleet(vms=40, days=0.25, shard_counts=(2, 4))
        with pytest.raises(ValueError, match="one VM per market"):
            measure_sharded_fleet(vms=2, days=0.25, markets=4)


class TestFleetMix:
    def test_single_class_mix_reproduces_homogeneous_cell(self):
        """The base mix class IS the homogeneous cell: same memory
        model, same plan, same deterministic event total."""
        homogeneous = _drive_cell(40, 0.25, seed=11)
        mixed = _drive_cell(40, 0.25, seed=11,
                            mix=default_fleet_mix(classes=1))
        assert mixed["events"] == homogeneous["events"]
        assert mixed["flush_flows"] == homogeneous["flush_flows"]
        assert mixed["flush_cohorts"] == 1

    def test_mix_bench_holds_the_ratchet(self):
        result = measure_fleet_mix(vms=200, days=0.25, classes=8,
                                   digest_vms=40, digest_markets=4,
                                   shard_counts=(1, 2))
        assert result["classes"] == 8
        assert result["mixed"]["flush_cohorts"] == 8
        # Geometric write factors: the mixed cell's summed round rate
        # stays near 1.5x the base class, nowhere near the 8x a
        # per-plan wakeup loop would cost.
        assert result["event_ratio"] < 2.0
        assert result["bit_identical"] is True
        assert result["single"]["events"] == result["sharded"]["events"]
        assert len(result["digest"]) == 64

    def test_mix_bench_reuses_matching_baseline(self):
        baseline = _drive_cell(40, 0.25, seed=11)
        result = measure_fleet_mix(vms=40, days=0.25, classes=2,
                                   baseline=baseline, digest_vms=40,
                                   digest_markets=4, shard_counts=(1, 2))
        assert result["homogeneous"] is baseline
        with pytest.raises(ValueError, match="baseline cell shape"):
            measure_fleet_mix(vms=80, days=0.25, classes=2,
                              baseline=baseline)

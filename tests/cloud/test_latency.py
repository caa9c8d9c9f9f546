"""Tests for the Table 1 latency model."""

import numpy as np
import pytest

from repro.cloud.latency import (
    ClippedLognormal,
    LatencySpec,
    OperationLatencyModel,
    SplitPowerLatency,
    TABLE1_SPECS,
    fit_latency_sampler,
)
from repro.sim.rng import RngRegistry


@pytest.fixture
def rng():
    return RngRegistry(7).stream("latency-tests")


class TestLatencySpec:
    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            LatencySpec("bad", median=5, mean=20, max=10, min=1)

    def test_table1_values_verbatim(self):
        spec = TABLE1_SPECS["start_spot_instance"]
        assert (spec.median, spec.mean, spec.max, spec.min) == \
            (227, 224, 409, 100)
        spec = TABLE1_SPECS["detach_volume"]
        assert (spec.median, spec.mean, spec.max, spec.min) == \
            (10.3, 10.3, 11.3, 9.6)


class TestClippedLognormal:
    @pytest.mark.parametrize("operation", sorted(TABLE1_SPECS))
    def test_samples_within_bounds(self, rng, operation):
        spec = TABLE1_SPECS[operation]
        sampler = fit_latency_sampler(spec)
        draws = sampler.sample(rng, size=2000)
        assert draws.min() >= spec.min - 1e-9
        assert draws.max() <= spec.max + 1e-9

    @pytest.mark.parametrize("operation", sorted(TABLE1_SPECS))
    def test_median_calibrated(self, rng, operation):
        spec = TABLE1_SPECS[operation]
        draws = fit_latency_sampler(spec).sample(rng, size=4000)
        assert np.median(draws) == pytest.approx(spec.median, rel=0.08)

    @pytest.mark.parametrize("operation", sorted(TABLE1_SPECS))
    def test_mean_calibrated(self, rng, operation):
        spec = TABLE1_SPECS[operation]
        draws = fit_latency_sampler(spec).sample(rng, size=4000)
        assert np.mean(draws) == pytest.approx(spec.mean, rel=0.10)

    def test_skewed_spec_uses_split_power(self):
        # The ENI detach stats (median 2, mean 3.5, max 12) cannot be
        # matched by a single clipped lognormal.
        sampler = fit_latency_sampler(TABLE1_SPECS["detach_network_interface"])
        assert isinstance(sampler, SplitPowerLatency)
        assert sampler.mean() == pytest.approx(3.5, rel=0.02)
        assert sampler.median() == pytest.approx(2.0, rel=0.02)

    def test_left_skewed_spec_uses_split_power(self):
        # Spot starts have mean < median (a lognormal is right-skewed)
        # yet a wide observed range; the fit must not collapse.
        sampler = fit_latency_sampler(TABLE1_SPECS["start_spot_instance"])
        assert isinstance(sampler, SplitPowerLatency)
        rng = RngRegistry(5).stream("spread")
        draws = sampler.sample(rng, size=5000)
        assert draws.min() < 150 and draws.max() > 350  # spans the range

    def test_degenerate_spec(self, rng):
        spec = LatencySpec("const", median=5, mean=5, max=5, min=5)
        sampler = ClippedLognormal(spec)
        assert sampler.sample(rng) == 5
        assert list(sampler.sample(rng, size=3)) == [5.0, 5.0, 5.0]


class TestOperationLatencyModel:
    def test_unknown_operation_raises(self, rng):
        with pytest.raises(KeyError):
            OperationLatencyModel(rng).sample("reboot_the_moon")

    def test_scale_multiplies(self, rng):
        fast = OperationLatencyModel(rng, scale=0.5)
        assert fast.mean("terminate_instance") == pytest.approx(
            0.5 * OperationLatencyModel(rng).mean("terminate_instance"))

    def test_invalid_scale(self, rng):
        with pytest.raises(ValueError):
            OperationLatencyModel(rng, scale=0.0)

    def test_migration_downtime_matches_paper(self, rng):
        # Paper: the detach/attach operations "cause an average
        # downtime of 22.65 seconds".
        model = OperationLatencyModel(rng)
        assert model.migration_downtime_mean() == pytest.approx(22.65, abs=0.7)

    def test_sampled_migration_downtime_plausible(self, rng):
        model = OperationLatencyModel(rng)
        draws = [model.sample_migration_downtime() for _ in range(300)]
        assert 15.0 < np.mean(draws) < 30.0

    def test_operations_cover_table1(self, rng):
        assert set(OperationLatencyModel(rng).operations()) == \
            set(TABLE1_SPECS)


class TestFitMemo:
    def test_equal_specs_share_one_fit(self):
        spec = TABLE1_SPECS["attach_volume"]
        twin = LatencySpec(spec.name, spec.median, spec.mean, spec.max,
                           spec.min)
        assert fit_latency_sampler(spec) is fit_latency_sampler(spec)
        assert fit_latency_sampler(twin) is fit_latency_sampler(spec)

    def test_shared_samplers_keep_draws_per_model(self):
        # Samplers are shared across models, so draws must depend only
        # on each model's own rng, however calls interleave.
        ops = sorted(TABLE1_SPECS)

        def model(seed):
            return OperationLatencyModel(RngRegistry(seed).stream("lat"))

        alone = model(3)
        expected = [alone.sample(op) for op in ops for _ in range(5)]
        twin, other = model(3), model(9)
        drawn = []
        for op in ops:
            for _ in range(5):
                other.sample(op, size=2)
                drawn.append(twin.sample(op))
                other.sample(ops[-1])
        assert drawn == expected

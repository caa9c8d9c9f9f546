"""Tests for the Section 4.4 analytical model."""

import pytest

from repro.core.analysis import (
    crossing_rate_per_hour,
    epoch_length_s,
    mean_price_below_bid,
    predict,
    predict_portfolio,
    revocation_probability,
)

from tests.traces.test_stats import make_trace

DAY = 24 * 3600.0


@pytest.fixture
def spiky():
    # 10% of the horizon above on-demand.
    return make_trace(
        [(0, 0.014), (9 * 3600.0, 0.50), (10 * 3600.0, 0.014),
         (100 * 3600.0, 0.014)])


class TestComponents:
    def test_revocation_probability(self, spiky):
        assert revocation_probability(spiky, 0.07) == pytest.approx(0.01)

    def test_mean_price_below_bid(self, spiky):
        assert mean_price_below_bid(spiky, 0.07) == pytest.approx(0.014)

    def test_mean_price_all_above_bid(self):
        trace = make_trace([(0, 0.5), (3600.0, 0.5)])
        # Nothing below the bid: the VM would always be on-demand.
        assert mean_price_below_bid(trace, 0.07) == 0.07

    def test_crossing_rate(self, spiky):
        assert crossing_rate_per_hour(spiky, 0.07) == pytest.approx(1 / 100)

    def test_epoch_length(self, spiky):
        assert epoch_length_s(spiky) == pytest.approx(100 * 3600.0 / 3)


class TestPredict:
    def test_cost_composition(self, spiky):
        prediction = predict(spiky, backup_share_per_hour=0.007)
        expected = 0.99 * 0.014 + 0.01 * 0.07 + 0.007
        assert prediction.expected_cost_per_hour == pytest.approx(expected)

    def test_unavailability_scales_with_downtime(self, spiky):
        fast = predict(spiky, downtime_per_migration_s=10.0)
        slow = predict(spiky, downtime_per_migration_s=100.0)
        assert slow.expected_unavailability == pytest.approx(
            10 * fast.expected_unavailability)

    def test_quiet_trace_perfect(self):
        trace = make_trace([(0, 0.014), (DAY, 0.014)])
        prediction = predict(trace)
        assert prediction.expected_unavailability == 0.0
        assert prediction.expected_availability == 1.0
        assert prediction.revocation_rate_per_hour == 0.0

    def test_bid_above_spikes_removes_revocations(self, spiky):
        prediction = predict(spiky, bid=1.0)
        assert prediction.revocation_rate_per_hour == 0.0
        # But the expected cost now includes time at the spike price.
        assert prediction.expected_cost_per_hour > 0.014

    def test_default_bid_is_on_demand(self, spiky):
        assert predict(spiky).revocation_probability == \
            predict(spiky, bid=0.07).revocation_probability


class TestPortfolio:
    def test_weighted_mixture(self, spiky):
        quiet = make_trace([(0, 0.02), (100 * 3600.0, 0.02)])
        mixed = predict_portfolio([(spiky, 1.0), (quiet, 1.0)])
        solo_spiky = predict(spiky)
        solo_quiet = predict(quiet)
        assert mixed.expected_cost_per_hour == pytest.approx(
            (solo_spiky.expected_cost_per_hour
             + solo_quiet.expected_cost_per_hour) / 2)
        assert mixed.expected_unavailability == pytest.approx(
            solo_spiky.expected_unavailability / 2)

    def test_zero_weights_rejected(self, spiky):
        with pytest.raises(ValueError):
            predict_portfolio([(spiky, 0.0)])

    def test_matches_paper_shape_on_synthetic_markets(self):
        # 1P-M (all weight on the stable market) must predict both a
        # lower cost and a higher availability than 4P-ED.
        from repro.experiments.policy_grid import shared_archive
        archive = shared_archive(11, 60.0)
        medium = archive.get("m3.medium", "us-east-1a")
        pools = [archive.get(name, "us-east-1a")
                 for name in ("m3.medium", "m3.large", "m3.xlarge",
                              "m3.2xlarge")]
        one_pool = predict(medium)
        four_pool = predict_portfolio([(t, 1.0) for t in pools])
        assert one_pool.expected_availability > \
            four_pool.expected_availability
        assert one_pool.expected_cost_per_hour < 0.07 / 3

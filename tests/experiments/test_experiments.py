"""Tests for the experiment harness (small, fast configurations).

The full-scale runs live in ``benchmarks/``; these tests check the
harness machinery and the qualitative shapes on reduced spans.
"""

import functools
from collections import Counter

import pytest

from repro.cloud import latency
from repro.experiments import fig1, fig6, fig7, fig8, fig9, table1
from repro.experiments.reporting import format_series, format_table
from repro.experiments.scenario import (
    MECHANISMS,
    POLICIES,
    PolicySimulation,
    ScenarioConfig,
    mechanism_config,
)
from repro.virt import memory

DAY = 24 * 3600.0


class TestFig1:
    def test_contains_spike(self):
        result = fig1.run(seed=1, days=20)
        assert result["peak_multiple"] > 5.0
        assert result["on_demand_price"] == 0.06
        assert len(result["prices"]) == len(result["times_h"])


class TestTable1:
    def test_rows_cover_all_operations(self):
        result = table1.run()
        assert len(result["rows"]) == 7
        for row in result["rows"]:
            assert row["min"] >= row["paper"].min - 1e-9
            assert row["max"] <= row["paper"].max + 1e-9

    def test_stats_near_paper(self):
        result = table1.run(samples=200)
        for row in result["rows"]:
            assert row["mean"] == pytest.approx(row["paper"].mean, rel=0.25)


class TestFig6:
    def test_availability_curves_monotone(self):
        curves = fig6.availability_cdfs(duration_s=20 * DAY)
        for name, curve in curves.items():
            availability = curve["availability"]
            assert (availability[1:] >= availability[:-1] - 1e-12).all()

    def test_jumps_long_tail(self):
        jumps = fig6.price_jumps(duration_s=30 * DAY)
        assert jumps["max_increase_pct"] > 500.0

    def test_zone_correlation_near_zero(self):
        result = fig6.zone_correlations(zones=4, duration_s=15 * DAY)
        assert result["max_offdiag"] < 0.3

    def test_type_correlation_near_zero(self):
        result = fig6.type_correlations(duration_s=15 * DAY, max_types=5)
        assert result["max_offdiag"] < 0.3


class TestFig7:
    def test_knee_between_25_and_45(self):
        result = fig7.run()
        knee = fig7.knee_vms(result, "specjbb")
        assert knee is not None and 25 <= knee <= 45

    def test_tpcw_checkpointing_overhead_at_one_vm(self):
        result = fig7.run(vm_counts=(0, 1))
        baseline, one = result["rows"]
        assert one["tpcw"] == pytest.approx(baseline["tpcw"] * 1.15,
                                            rel=0.01)
        assert one["specjbb"] == pytest.approx(baseline["specjbb"])


class TestFig8:
    def test_optimized_beats_unoptimized_everywhere(self):
        result = fig8.run(use_des=False)
        for n in (1, 5, 10):
            for kind in ("full", "lazy"):
                assert fig8.pick(result, n, kind, True) < \
                    fig8.pick(result, n, kind, False)

    def test_unoptimized_lazy_blows_up_at_10(self):
        result = fig8.run(use_des=False)
        assert fig8.pick(result, 10, "lazy", False) > \
            2.5 * fig8.pick(result, 10, "full", False)

    def test_des_matches_analytic(self):
        result = fig8.run(concurrency=(1, 5), use_des=True)
        for row in result["rows"]:
            assert row["des_s"] == pytest.approx(row["analytic_s"], rel=0.05)


class TestFig9:
    def test_shape(self):
        result = fig9.run()
        response = {row["concurrent"]: row["response_ms"]
                    for row in result["rows"]}
        assert response[0] == 29.0
        assert 55.0 <= response[1] <= 65.0
        assert response[10] < response[1] * 1.1


class TestScenario:
    def test_mechanism_names_resolve(self):
        for name in MECHANISMS + ("unoptimized-lazy",):
            mech, live_only = mechanism_config(name)
            assert mech is not None
            assert isinstance(live_only, bool)
        with pytest.raises(ValueError):
            mechanism_config("quantum-tunnel")

    def test_policy_list_matches_table2(self):
        assert POLICIES == ("1P-M", "2P-ML", "4P-ED", "4P-COST", "4P-ST")

    def test_small_run_summary(self):
        config = ScenarioConfig(policy="1P-M", days=5.0, vms=4, seed=3)
        summary = PolicySimulation(config).run()
        assert summary["policy"] == "1P-M"
        assert summary["state_loss_events"] == 0
        assert summary["vm_hours"] == pytest.approx(4 * 5 * 24, rel=0.02)

    def test_variant_overrides(self):
        sim = PolicySimulation(ScenarioConfig(days=2.0, vms=2))
        variant = sim.variant(policy="4P-ED")
        assert variant.config.policy == "4P-ED"
        assert variant.config.days == 2.0

    def test_shared_archive_identical_prices(self):
        archive = PolicySimulation.build_archive(7, 3 * DAY)
        a = PolicySimulation(
            ScenarioConfig(days=3.0, vms=2, seed=7), archive=archive).run()
        b = PolicySimulation(
            ScenarioConfig(days=3.0, vms=2, seed=7), archive=archive).run()
        assert a["cost_per_vm_hour"] == pytest.approx(b["cost_per_vm_hour"])

    def test_second_cell_recalibrates_nothing(self, monkeypatch):
        # The Table 1 fits and the dirty-budget intervals are per-process
        # memos, so a second cell of the same shape calibrates no
        # lognormal and bisects no interval.  Fresh memos over counting
        # solvers make the first cell do (and count) the real work.
        calls = Counter()
        calibrate = latency.ClippedLognormal._calibrate
        bisect = memory._bisect_interval.__wrapped__

        def counting_calibrate(sampler):
            calls["calibrations"] += 1
            calibrate(sampler)

        def counting_bisect(model, budget_bytes):
            calls["bisections"] += 1
            return bisect(model, budget_bytes)

        monkeypatch.setattr(latency.ClippedLognormal, "_calibrate",
                            counting_calibrate)
        monkeypatch.setattr(latency, "fit_latency_sampler",
                            functools.lru_cache(
                                latency.fit_latency_sampler.__wrapped__))
        monkeypatch.setattr(memory, "_bisect_interval",
                            functools.lru_cache(counting_bisect))
        archive = PolicySimulation.build_archive(7, 3 * DAY)

        def cell_calls(policy):
            calls.clear()
            PolicySimulation(ScenarioConfig(policy=policy, days=3.0, vms=2,
                                            seed=7), archive=archive).run()
            return dict(calls)

        first = cell_calls("1P-M")
        assert first["calibrations"] > 0 and first["bisections"] > 0
        assert cell_calls("4P-ED") == {}


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", 0.0001)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series([1.0, 2.0], [10.0, 20.0], "x", "y")
        assert "10" in text and "20" in text

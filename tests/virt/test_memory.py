"""Tests for the memory-dirtying model, including property tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.virt import memory as memory_module
from repro.virt.memory import DirtyBudgetInfeasible, MemoryModel, PAGE_SIZE

GiB = 1024 ** 3


def model(**overrides):
    defaults = dict(total_bytes=GiB, write_rate_pages=1000.0)
    defaults.update(overrides)
    return MemoryModel(**defaults)


memory_models = st.builds(
    MemoryModel,
    total_bytes=st.integers(min_value=PAGE_SIZE, max_value=64 * GiB),
    write_rate_pages=st.floats(min_value=0.0, max_value=1e6,
                               allow_nan=False),
    working_set_fraction=st.floats(min_value=0.01, max_value=1.0),
    cold_write_fraction=st.floats(min_value=0.0, max_value=0.5),
)


class TestValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            model(total_bytes=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            model(write_rate_pages=-1)

    def test_bad_working_set_rejected(self):
        with pytest.raises(ValueError):
            model(working_set_fraction=0.0)
        with pytest.raises(ValueError):
            model(working_set_fraction=1.5)

    def test_bad_cold_fraction_rejected(self):
        with pytest.raises(ValueError):
            model(cold_write_fraction=1.0)


class TestDirtying:
    def test_zero_interval_zero_dirty(self):
        assert model().unique_pages_dirtied(0.0) == 0.0

    def test_idle_vm_never_dirties(self):
        assert model(write_rate_pages=0.0).unique_pages_dirtied(1e6) == 0.0

    def test_short_interval_roughly_linear(self):
        m = model(write_rate_pages=100.0)
        assert m.unique_pages_dirtied(1.0) == pytest.approx(100.0, rel=0.05)

    def test_long_interval_saturates_at_working_set(self):
        m = model(working_set_fraction=0.2, cold_write_fraction=0.0)
        dirty = m.unique_pages_dirtied(1e7)
        assert dirty == pytest.approx(m.working_set_pages, rel=0.01)

    def test_cold_writes_push_past_working_set(self):
        hot_only = model(cold_write_fraction=0.0)
        with_cold = model(cold_write_fraction=0.1)
        long_s = 3e4
        assert with_cold.unique_pages_dirtied(long_s) > \
            hot_only.unique_pages_dirtied(long_s)

    @given(memory_models, st.floats(min_value=0, max_value=1e6,
                                    allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_total_pages(self, memory, interval):
        assert memory.unique_pages_dirtied(interval) <= memory.total_pages

    @given(memory_models,
           st.floats(min_value=0.001, max_value=1e4, allow_nan=False),
           st.floats(min_value=1.001, max_value=10.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_interval(self, memory, interval, factor):
        assert memory.unique_pages_dirtied(interval * factor) >= \
            memory.unique_pages_dirtied(interval) - 1e-9

    @given(memory_models, st.floats(min_value=0.001, max_value=1e4,
                                    allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sublinear_in_interval(self, memory, interval):
        # Unique pages over 2t never exceed twice those over t
        # (dirtying has diminishing returns, never increasing ones).
        once = memory.unique_pages_dirtied(interval)
        twice = memory.unique_pages_dirtied(2 * interval)
        assert twice <= 2 * once + 1e-6


class TestIntervalInversion:
    def test_inverse_of_dirty_bytes(self):
        m = model(write_rate_pages=800.0, total_bytes=2 * GiB)
        budget = 50e6
        interval = m.interval_for_dirty_bytes(budget)
        assert m.dirty_bytes(interval) == pytest.approx(budget, rel=0.01)

    def test_idle_vm_infinite_interval(self):
        assert model(write_rate_pages=0.0).interval_for_dirty_bytes(1e6) \
            == float("inf")

    def test_tiny_budget_raises_infeasible(self):
        # Even a 1 ms interval dirties more than the budget: there is
        # no interval to return, and a silent floor would let planners
        # pretend the commit bound holds.
        # The interval solve is memoized, so the second call must raise
        # too rather than find a cached answer.
        m = model(write_rate_pages=1e6)
        for _ in range(2):
            with pytest.raises(DirtyBudgetInfeasible):
                m.interval_for_dirty_bytes(1.0)

    def test_unreachable_budget_returns_inf(self):
        # Dirtying saturates (working set + cold region) far below the
        # budget: every interval fits.
        m = model(write_rate_pages=10.0, total_bytes=PAGE_SIZE * 64)
        assert m.interval_for_dirty_bytes(1e12) == float("inf")

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            model().interval_for_dirty_bytes(0)

    @given(memory_models.filter(lambda m: m.write_rate_pages > 1.0),
           st.floats(min_value=PAGE_SIZE, max_value=1e9, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_dirty_at_returned_interval_within_budget(self, memory, budget):
        try:
            interval = memory.interval_for_dirty_bytes(budget)
        except DirtyBudgetInfeasible:
            # Signalled explicitly: the budget overflows within 1 ms.
            assert memory.dirty_bytes(1e-3) > budget
            return
        if interval == float("inf"):
            # Saturated below the budget: any interval fits.
            return
        assert memory.dirty_bytes(interval) <= budget * 1.02 + PAGE_SIZE


class TestIntervalMemo:
    def test_budget_validated_before_lookup(self, monkeypatch):
        def no_lookup(memory, budget_bytes):
            raise AssertionError("non-positive budget reached the memo")

        monkeypatch.setattr(memory_module, "_bisect_interval", no_lookup)
        for budget in (0, -1.0):
            with pytest.raises(ValueError, match="budget must be positive"):
                model().interval_for_dirty_bytes(budget)

    @given(memory_models,
           st.one_of(st.floats(min_value=1.0, max_value=PAGE_SIZE),
                     st.floats(min_value=PAGE_SIZE, max_value=1e9),
                     st.floats(min_value=1e9, max_value=1e14)))
    # One pinned example per branch: finite, idle, saturated, infeasible.
    @example(model(write_rate_pages=800.0), 50e6)
    @example(model(write_rate_pages=0.0), 1e6)
    @example(model(write_rate_pages=10.0, total_bytes=PAGE_SIZE * 64), 1e12)
    @example(model(write_rate_pages=1e6), 1.0)
    @settings(max_examples=100, deadline=None)
    def test_memo_equals_uncached_solver(self, memory, budget):
        # The memo must be invisible: cold and warm lookups return the
        # uncached bisection's float bit for bit, or raise as it does.
        uncached = memory_module._bisect_interval.__wrapped__
        try:
            expected = uncached(memory, budget).hex()
        except DirtyBudgetInfeasible:
            for _ in range(2):
                with pytest.raises(DirtyBudgetInfeasible):
                    memory.interval_for_dirty_bytes(budget)
            return
        for _ in range(2):
            assert memory.interval_for_dirty_bytes(budget).hex() == expected


class TestScaled:
    def test_scaled_rate(self):
        m = model(write_rate_pages=100.0)
        assert m.scaled(2.5).write_rate_pages == 250.0
        assert m.scaled(2.5).total_bytes == m.total_bytes

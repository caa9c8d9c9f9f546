"""Tests for the simulation environment and run loop."""

import time

import pytest

from repro.sim import Environment, SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_starts_at_initial_time(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_advances_with_timeouts(self, env):
        env.timeout(10.0)
        env.run()
        assert env.now == 10.0

    def test_run_until_number_advances_clock_exactly(self, env):
        env.timeout(3.0)
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_past_raises(self, env):
        env.timeout(50.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=10.0)


class TestRunLoop:
    def test_run_drains_heap(self, env):
        fired = []
        for delay in (5.0, 1.0, 3.0):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: fired.append(d))
        env.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(2.0)
            return "done"
        assert env.run(until=env.process(proc())) == "done"

    def test_run_until_event_reraises_failure(self, env):
        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("boom")
        process = env.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=process)

    def test_run_until_never_triggered_event_raises(self, env):
        lonely = env.event()
        with pytest.raises(SimulationError):
            env.run(until=lonely)

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_number_stops_before_later_events(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(lambda e: fired.append(5))
        env.timeout(15.0).callbacks.append(lambda e: fired.append(15))
        env.run(until=10.0)
        assert fired == [5]
        env.run()
        assert fired == [5, 15]

    def test_peek_reports_next_event_time(self, env):
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 0.0 or env.peek() == 7.0  # heap holds trigger

    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []
        for tag in "abc":
            env.timeout(1.0).callbacks.append(
                lambda e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]


class TestDeterminism:
    def test_same_seed_same_rng_draws(self):
        a = Environment(seed=9).rng.stream("x").random(5)
        b = Environment(seed=9).rng.stream("x").random(5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = Environment(seed=9).rng.stream("x").random(5)
        b = Environment(seed=10).rng.stream("x").random(5)
        assert list(a) != list(b)


class TestThroughput:
    def test_timeout_cycles_are_counted(self):
        """Each timeout cycle is one kernel event; the process's start
        and exit add the other two."""
        def spin(env):
            for _ in range(2000):
                yield env.timeout(1.0)

        env = Environment(seed=0)
        env.process(spin(env))
        env.run()
        assert env.events_processed == 2002
        assert env.now == 2000.0

    def test_timeout_cycles_clear_the_floor(self):
        """A regression tripwire, not a leaderboard: a healthy kernel
        retires ~1M timeout cycles per second on one core, so 50k/s
        (best of three) trips only on a complexity regression in the
        schedule/step path, never on host noise."""
        events = 150_000

        def spin(env):
            timeout = env.timeout
            for _ in range(events):
                yield timeout(1.0)

        best = float("inf")
        for _ in range(3):
            env = Environment(seed=0)
            env.process(spin(env))
            started = time.perf_counter()
            env.run()
            best = min(best, time.perf_counter() - started)
            assert env.events_processed > events
        assert events / best >= 50_000

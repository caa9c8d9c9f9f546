"""End-to-end: the observability layer wired into a real controller run.

Drives the controller-test harness (spiky m3.medium trace: warnings at
t=50000, recovery at t=58000) with an attached
:class:`~repro.obs.Observability` and checks the acceptance properties:
migration traces decompose into the Table 1 phases, per-phase span
durations sum to the recorded downtime, and attaching a bus does not
change simulation behaviour.
"""

import pytest

from repro.cloud.zones import default_region
from repro.core.controller import SpotCheckController
from repro.obs import Observability
from repro.sim.kernel import Environment
from repro.traces.archive import TraceArchive

from tests.core.test_controller import (
    SPIKE_END,
    SPIKE_START,
    launch_fleet,
    spiky_trace,
)

DOWNTIME_PHASES = {"final-commit", "ebs-detach", "vpc-detach", "dest-wait",
                   "ebs-attach", "vpc-attach", "restore"}


def build_observed(config=None, obs=None):
    controller = SpotCheckController.deploy(
        Environment(seed=99, obs=obs), default_region(1),
        TraceArchive([spiky_trace("m3.medium", 0.07)]), config)
    return controller.env, controller.api, controller


@pytest.fixture(scope="module")
def observed_run():
    obs = Observability()
    env, api, controller = build_observed(obs=obs)
    launch_fleet(env, controller, count=3)
    env.run(until=SPIKE_START + 2000.0)
    return obs, env, controller


class TestEventFlow:
    def test_warning_and_storm_events_published(self, observed_run):
        obs, env, controller = observed_run
        names = {event.name for event in obs.events}
        assert "spot.warning" in names
        assert "storm.finalized" in names
        assert "vm.created" in names
        assert "vm.parked" in names
        assert "migration.completed" in names
        assert "backup.stream_assigned" in names

    def test_events_are_time_ordered(self, observed_run):
        obs, env, controller = observed_run
        times = [event.time for event in obs.events]
        assert times == sorted(times)
        seqs = [event.seq for event in obs.events]
        assert seqs == sorted(seqs)

    def test_storm_event_matches_ledger(self, observed_run):
        obs, env, controller = observed_run
        storms = [e for e in obs.events if e.name == "storm.finalized"]
        assert len(storms) == len(controller.ledger.revocations)
        assert storms[0].fields["vms_displaced"] == \
            controller.ledger.revocations[0].vms_displaced


class TestMigrationTraces:
    def test_each_bounded_migration_has_a_trace(self, observed_run):
        obs, env, controller = observed_run
        bounded = [m for m in controller.ledger.migrations
                   if m.mechanism.startswith("bounded-")]
        traces = [t for t in obs.tracer.finished("migration")
                  if t.attrs["mechanism"].startswith("bounded-")]
        assert len(bounded) == len(traces) > 0

    def test_phases_decompose_table1(self, observed_run):
        obs, env, controller = observed_run
        for trace in obs.tracer.finished("migration"):
            if not trace.attrs["mechanism"].startswith("bounded-"):
                continue
            names = {child.name for child in trace.children}
            assert {"final-commit", "ebs-detach", "vpc-detach",
                    "ebs-attach", "vpc-attach", "restore"} <= names
            for child in trace.children:
                assert child.end is not None
                assert child.start >= trace.start
                assert child.end <= trace.end

    def test_phase_spans_sum_to_recorded_downtime(self, observed_run):
        obs, env, controller = observed_run
        records = {m.vm_id: m for m in controller.ledger.migrations
                   if m.mechanism.startswith("bounded-")}
        checked = 0
        for trace in obs.tracer.finished("migration"):
            record = records.get(trace.attrs["vm"])
            if record is None or \
                    not trace.attrs["mechanism"].startswith("bounded-"):
                continue
            span_sum = sum(child.duration_s for child in trace.children
                           if child.name in DOWNTIME_PHASES)
            assert span_sum == pytest.approx(record.downtime_s, rel=1e-6)
            checked += 1
        assert checked > 0

    def test_ledger_phases_sum_to_downtime(self, observed_run):
        obs, env, controller = observed_run
        for record in controller.ledger.migrations:
            assert record.phases
            assert sum(record.phases.values()) == \
                pytest.approx(record.downtime_s, rel=1e-6)


class TestMetrics:
    def test_downtime_histogram_recorded(self, observed_run):
        obs, env, controller = observed_run
        series = obs.metrics.find("migration_downtime_seconds")
        assert series
        bounded = [s for s in series
                   if s.labels["mechanism"].startswith("bounded-")]
        assert bounded
        ledger_bounded = [m for m in controller.ledger.migrations
                          if m.mechanism.startswith("bounded-")]
        assert sum(s.count for s in bounded) == len(ledger_bounded)
        assert sum(s.sum for s in bounded) == pytest.approx(
            sum(m.downtime_s for m in ledger_bounded))

    def test_warning_counter_matches_events(self, observed_run):
        obs, env, controller = observed_run
        warnings = [e for e in obs.events if e.name == "spot.warning"]
        counters = obs.metrics.find("spot_warnings_total")
        assert sum(c.value for c in counters) == len(warnings)


class TestOptIn:
    def test_unobserved_run_has_no_obs(self):
        env, api, controller = build_observed()
        assert env.obs is None
        launch_fleet(env, controller, count=1)
        env.run(until=SPIKE_START + 2000.0)
        assert controller.ledger.migrations  # sim ran fine, nothing broke

    def test_observation_does_not_change_behaviour(self):
        results = []
        for obs in (None, Observability()):
            env, api, controller = build_observed(obs=obs)
            launch_fleet(env, controller, count=2)
            env.run(until=SPIKE_END + 20000.0)
            ledger = controller.ledger
            results.append((
                len(ledger.migrations),
                len(ledger.revocations),
                round(ledger.total_downtime_s(), 9),
                round(ledger.total_degraded_s(), 9),
            ))
        assert results[0] == results[1]

"""Tests for the JSONL / Prometheus / trace-tree exporters."""

import json

from repro.obs import Observability
from repro.obs.bus import EventBus
from repro.obs.export import (
    JsonlEventWriter,
    events_to_jsonl,
    load_events,
    render_prometheus,
    render_trace_tree,
    summarize_obs_dir,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer


def collect_events(publishes):
    bus = EventBus()
    events = []
    bus.subscribe("*", events.append)
    for name, time, fields in publishes:
        bus.publish(name, time, **fields)
    return events


class TestJsonl:
    def test_round_trip(self):
        events = collect_events([
            ("spot.warning", 1.5, {"instance": "i-1", "bid": 0.07}),
            ("migration.completed", 2.0, {"vm": "nvm-1"}),
        ])
        text = events_to_jsonl(events)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "spot.warning"
        assert first["bid"] == 0.07

    def test_keys_are_sorted_for_determinism(self):
        events = collect_events([("e", 0.0, {"zebra": 1, "alpha": 2})])
        line = events_to_jsonl(events).strip()
        assert line.index('"alpha"') < line.index('"zebra"')

    def test_streaming_writer(self, tmp_path):
        bus = EventBus()
        path = tmp_path / "events.jsonl"
        writer = JsonlEventWriter(bus, str(path))
        bus.publish("a", 0.0, x=1)
        bus.publish("b", 1.0)
        writer.close()
        bus.publish("c", 2.0)  # after close: not written
        loaded = load_events(str(path))
        assert [e["name"] for e in loaded] == ["a", "b"]
        assert writer.written == 2


class TestPrometheus:
    def test_counter_and_gauge_format(self):
        registry = MetricsRegistry()
        registry.counter("vms_created_total").inc(3)
        registry.gauge("parked_vms").set(2.5)
        text = render_prometheus(registry)
        assert "# TYPE vms_created_total counter" in text
        assert "vms_created_total 3" in text
        assert "# TYPE parked_vms gauge" in text
        assert "parked_vms 2.5" in text

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("migration_downtime_seconds",
                                  mechanism="spotcheck-lazy")
        for value in (20.0, 22.0, 24.0):
            hist.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE migration_downtime_seconds summary" in text
        assert ('migration_downtime_seconds{mechanism="spotcheck-lazy",'
                'quantile="0.5"} 22' in text)
        assert ('migration_downtime_seconds_count'
                '{mechanism="spotcheck-lazy"} 3' in text)
        assert ('migration_downtime_seconds_sum'
                '{mechanism="spotcheck-lazy"} 66' in text)

    def test_label_order_is_stable(self):
        registry = MetricsRegistry()
        registry.counter("m", zone="us-east-1a", type="m3.medium").inc()
        text = render_prometheus(registry)
        assert 'm{type="m3.medium",zone="us-east-1a"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_non_finite_values_use_text_format_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(float("inf"))
        registry.gauge("down").set(float("-inf"))
        registry.gauge("unknown").set(float("nan"))
        registry.gauge("finite").set(1e20)
        registry.gauge("whole").set(-7.0)
        text = render_prometheus(registry)
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text
        assert "unknown NaN\n" in text
        assert "finite 1e+20\n" in text
        assert "whole -7\n" in text


class TestInfiniteBudgetBurnExport:
    def test_zero_budget_window_with_a_failure_exports(self, tmp_path):
        # A zero-budget window that sees a failed request burns at
        # +Inf; the sla_budget_burn gauge used to crash the export.
        from repro.sim.kernel import Environment
        from repro.traffic import SlaLedger

        obs = Observability()
        Environment(seed=1, obs=obs)
        ledger = SlaLedger("web", obs=obs)
        ledger.begin_window(0, 10, 0.0)
        ledger.account_down(0, 1, 5)
        assert ledger.window_burn == float("inf")
        obs.write_dir(str(tmp_path))
        text = (tmp_path / "metrics.prom").read_text()
        assert 'sla_budget_burn{customer="web"} +Inf\n' in text


class TestTraceTree:
    def test_renders_nesting_and_durations(self):
        tracer = SpanTracer()
        root = tracer.start_trace("migration", time=0.0, vm="nvm-1")
        child = tracer.start_span(root, "final-commit", time=1.0)
        tracer.end(child, time=2.5)
        tracer.end(root, time=3.0)
        text = render_trace_tree(tracer.finished())
        assert "trace #1 (migration)" in text
        assert "vm=nvm-1" in text
        assert "final-commit" in text
        assert "1.500s" in text

    def test_empty_traces_render_empty(self):
        assert render_trace_tree([]) == ""


class TestObsDir:
    def test_write_and_summarize(self, tmp_path):
        obs = Observability()

        class FakeEnv:
            now = 0.0
        env = FakeEnv()
        obs.attach(env)
        obs.emit("spot.warning", instance="i-1")
        env.now = 10.0
        obs.emit("migration.completed", vm="nvm-1")
        obs.metrics.histogram(
            "migration_downtime_seconds",
            mechanism="bounded-lazy").observe(22.65)
        trace = obs.tracer.start_trace("migration")
        obs.tracer.end(trace)
        out = tmp_path / "obs"
        obs.write_dir(str(out))
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.prom").exists()
        assert (out / "traces.txt").exists()
        digest = summarize_obs_dir(str(out))
        assert "events: 2" in digest
        assert "spot.warning" in digest
        assert "migration_downtime_seconds" in digest
        assert "traces: 1" in digest

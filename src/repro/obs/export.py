"""Exporters: JSONL event logs, Prometheus text metrics, trace trees.

Every export is deterministic — fields sorted, floats rendered by
:func:`repr` via :mod:`json` — so the same simulation (same seed, same
config, fresh process) produces byte-identical output.  That property
is part of the simulator's reproducibility contract and is guarded by
a test.
"""

import json
import math
import os


# -- events ------------------------------------------------------------

#: One encoder for every event; ``json.dumps`` with these options
#: builds a new one per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def event_to_json(event):
    """One event as a compact, key-sorted JSON line (no newline)."""
    return _encode(event.to_dict())


def events_to_jsonl(events):
    """A full JSONL document for an iterable of events."""
    return "".join(event_to_json(event) + "\n" for event in events)


class JsonlEventWriter:
    """Bus subscriber that streams matching events to a file.

    Events are written as they are published, so a multi-month
    simulation never holds its event log in memory.
    """

    def __init__(self, bus, path, pattern="*"):
        self._handle = open(path, "w")
        self._subscription = bus.subscribe(pattern, self._write)
        self.written = 0

    def _write(self, event):
        self._handle.write(event_to_json(event) + "\n")
        self.written += 1

    def close(self):
        self._subscription.cancel()
        self._handle.close()


# -- metrics -----------------------------------------------------------


def _format_labels(labels, extra=None):
    items = sorted(labels.items())
    if extra:
        items = items + list(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in items)
    return "{" + body + "}"


def _format_value(value):
    if value is None:
        return "NaN"
    value = float(value)
    # The text format's spellings; a zero SLO budget burns at +Inf.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry):
    """The registry in Prometheus text exposition format.

    Counters and gauges export one sample; histograms export as
    summaries (per-quantile samples plus ``_sum``/``_count``/``_min``/
    ``_max``).
    """
    from repro.obs.metrics import Counter, Gauge, Histogram

    lines = []
    typed = set()
    for series in registry.series():
        kind = ("counter" if isinstance(series, Counter)
                else "gauge" if isinstance(series, Gauge)
                else "summary")
        if series.name not in typed:
            typed.add(series.name)
            lines.append(f"# TYPE {series.name} {kind}")
        labels = _format_labels(series.labels)
        if isinstance(series, Histogram):
            for q, value in series.quantiles.items():
                qlabels = _format_labels(
                    series.labels, extra=[("quantile", _format_value(q))])
                lines.append(
                    f"{series.name}{qlabels} {_format_value(value)}")
            lines.append(
                f"{series.name}_sum{labels} {_format_value(series.sum)}")
            lines.append(
                f"{series.name}_count{labels} {_format_value(series.count)}")
            lines.append(
                f"{series.name}_min{labels} {_format_value(series.min)}")
            lines.append(
                f"{series.name}_max{labels} {_format_value(series.max)}")
        else:
            lines.append(f"{series.name}{labels} {_format_value(series.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- traces ------------------------------------------------------------


def render_span(span, indent=0):
    """One span (and its subtree) as indented human-readable lines."""
    pad = "  " * indent
    attrs = " ".join(f"{key}={value}"
                     for key, value in sorted(span.attrs.items()))
    duration = (f"{span.duration_s:10.3f}s" if span.end is not None
                else "      open")
    line = (f"{pad}{span.name:<20s} {span.start:12.3f} -> "
            f"{span.end if span.end is not None else float('nan'):12.3f} "
            f"[{duration}]")
    if attrs:
        line += f"  {attrs}"
    lines = [line]
    for child in span.children:
        lines.extend(render_span(child, indent + 1))
    return lines


def render_trace_tree(traces):
    """All traces as one text document, separated by blank lines."""
    blocks = []
    for index, trace in enumerate(traces, 1):
        header = [f"trace #{index} ({trace.name})"]
        blocks.append("\n".join(header + render_span(trace, indent=1)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# -- directory output --------------------------------------------------

EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.prom"
TRACES_FILE = "traces.txt"


def write_obs_dir(obs, path):
    """Write events.jsonl, metrics.prom, and traces.txt under ``path``.

    The events file is only (re)written here if the observability
    facade recorded events in memory; a streaming
    :class:`JsonlEventWriter` pointed at the same path wins otherwise.
    """
    os.makedirs(path, exist_ok=True)
    events_path = os.path.join(path, EVENTS_FILE)
    if obs.events is not None:
        with open(events_path, "w") as handle:
            handle.write(events_to_jsonl(obs.events))
    with open(os.path.join(path, METRICS_FILE), "w") as handle:
        handle.write(render_prometheus(obs.metrics))
    with open(os.path.join(path, TRACES_FILE), "w") as handle:
        handle.write(render_trace_tree(obs.tracer.finished()))
    return path


# -- summarize (the `repro obs summarize` subcommand) -------------------


def load_events(path):
    """Parse an events.jsonl file back into a list of dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def summarize_obs_dir(path):
    """A human-readable digest of one --obs-dir output directory."""
    lines = []
    events_path = os.path.join(path, EVENTS_FILE)
    if os.path.exists(events_path):
        events = load_events(events_path)
        lines.append(f"events: {len(events)} "
                     f"({os.path.basename(events_path)})")
        if events:
            span = events[-1]["t"] - events[0]["t"]
            lines.append(f"  time span: {events[0]['t']:.1f}s .. "
                         f"{events[-1]['t']:.1f}s ({span / 3600.0:.1f}h)")
        by_name = {}
        for event in events:
            by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        for name in sorted(by_name):
            lines.append(f"  {name:<28s} {by_name[name]}")
    else:
        lines.append("events: (no events.jsonl)")
    metrics_path = os.path.join(path, METRICS_FILE)
    if os.path.exists(metrics_path):
        with open(metrics_path) as handle:
            samples = [line for line in handle.read().splitlines()
                       if line and not line.startswith("#")]
        lines.append(f"metrics: {len(samples)} samples "
                     f"({os.path.basename(metrics_path)})")
        interesting = [s for s in samples
                       if s.startswith("migration_downtime_seconds")]
        for sample in interesting:
            lines.append(f"  {sample}")
    else:
        lines.append("metrics: (no metrics.prom)")
    traces_path = os.path.join(path, TRACES_FILE)
    if os.path.exists(traces_path):
        with open(traces_path) as handle:
            text = handle.read()
        roots = sum(1 for line in text.splitlines()
                    if line.startswith("trace #"))
        lines.append(f"traces: {roots} ({os.path.basename(traces_path)})")
    else:
        lines.append("traces: (no traces.txt)")
    return "\n".join(lines) + "\n"

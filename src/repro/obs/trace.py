"""Span tracing: every migration becomes a tree of timed phases.

A *trace* is a root :class:`Span` (e.g. one bounded-time migration)
with nested child spans — warning wait, checkpoint ramp, final commit,
EBS/VPC detach and attach, restore, demand-page tail — reproducing the
paper's Table 1 downtime decomposition *per migration* instead of only
in aggregate.

Spans are timed on the simulated clock.  The tracer is handed a clock
callable when the :class:`~repro.obs.Observability` facade is attached
to an environment; all ``start``/``end`` calls then default to
``env.now``.  :data:`NULL_TRACER` is a no-op stand-in so
instrumentation can run unconditionally without per-call ``if obs``
checks on rarely-hit paths.
"""

from itertools import count


class Span:
    """One timed phase, possibly nested under a parent span."""

    __slots__ = ("name", "trace_id", "span_id", "parent", "start", "end",
                 "attrs", "children")

    def __init__(self, name, trace_id, span_id, parent, start, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = attrs
        self.children = []

    @property
    def duration_s(self):
        """Span length (``None`` while the span is open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def child(self, name):
        """The first direct child named ``name`` (or ``None``)."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def __repr__(self):
        dur = f"{self.duration_s:.3f}s" if self.end is not None else "open"
        return f"<Span {self.name} [{dur}] children={len(self.children)}>"


class SpanTracer:
    """Creates and finishes spans; retains completed root spans.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time.
        Optional — every ``start``/``end`` accepts an explicit ``time``.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.traces = []
        self._trace_ids = count(1)
        self._span_ids = count(1)

    def _now(self, time):
        if time is not None:
            return time
        if self.clock is None:
            raise ValueError("no clock attached; pass time= explicitly")
        return self.clock()

    def start_trace(self, name, time=None, **attrs):
        """Open a new root span; it is retained once ended."""
        span = Span(name, next(self._trace_ids), next(self._span_ids),
                    None, self._now(time), attrs)
        return span

    def start_span(self, parent, name, time=None, **attrs):
        """Open a child span under ``parent``."""
        span = Span(name, parent.trace_id, next(self._span_ids), parent,
                    self._now(time), attrs)
        parent.children.append(span)
        return span

    def end(self, span, time=None):
        """Close ``span``; closing a root span files its trace."""
        if span.end is not None:
            raise ValueError(f"span {span.name} already ended")
        span.end = self._now(time)
        if span.end < span.start:
            raise ValueError(
                f"span {span.name} ends before it starts "
                f"({span.end} < {span.start})")
        if span.parent is None:
            self.traces.append(span)
        return span

    def finished(self, name=None):
        """Completed traces, optionally filtered by root-span name."""
        if name is None:
            return list(self.traces)
        return [t for t in self.traces if t.name == name]


class _NullSpan:
    """Inert span handed out by :data:`NULL_TRACER`."""

    __slots__ = ()
    name = "null"
    children = ()
    attrs = {}
    start = end = None
    duration_s = None

    def child(self, name):
        return None

    def walk(self):
        return iter(())


class NullTracer:
    """A tracer that does nothing, for uninstrumented runs."""

    _SPAN = _NullSpan()

    def start_trace(self, name, time=None, **attrs):
        return self._SPAN

    def start_span(self, parent, name, time=None, **attrs):
        return self._SPAN

    def end(self, span, time=None):
        return span

    def finished(self, name=None):
        return []


#: Shared no-op tracer: ``tracer = obs.tracer if obs else NULL_TRACER``.
NULL_TRACER = NullTracer()

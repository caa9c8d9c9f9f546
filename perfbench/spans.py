"""In-memory layer spans recorded from outside the simulator.

The benchmark never edits the program it measures.  ``Tracer.wrap``
replaces a public synchronous function on its owning class or module
with a timing shim that opens a span named after a layer, calls the
original, and closes the span.  Spans nest on a stack, so each span
knows how much of its own interval its children covered; a layer's
self time is its spans' durations minus that covered part.  Re-entry
into a layer that is already open (a layer calling itself, directly or
through another layer) adds no second inclusive interval, so inclusive
time never double counts.

Only synchronous functions may be wrapped: a generator function
returns before any of its work runs, so its span would time nothing.
``wrap`` refuses them.  Counting calls needs no timing and may wrap
anything (``count``).
"""

import contextlib
import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-layer totals; restores what it wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        #: Open spans: [layer, start, covered-by-children seconds].
        self._stack = []
        self._open = defaultdict(int)
        self._restore = []

    # -- spans ---------------------------------------------------------

    def enter(self, layer):
        self._open[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self):
        layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - covered
        self._open[layer] -= 1
        if self._open[layer] == 0:
            self.inclusive_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, layer):
        """Context manager form of enter/exit."""
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, name, layer):
        """Time every call of ``owner.name`` as a span of ``layer``.

        ``layer`` is a name, or a callable ``layer(args, kwargs)``
        naming the span per call.
        """
        original = inspect.getattr_static(owner, name)
        function = getattr(owner, name)
        if inspect.isgeneratorfunction(function) or \
                inspect.iscoroutinefunction(function):
            raise TypeError(f"{owner.__name__}.{name} is not synchronous; "
                            "a span would time only its creation")
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            tracer.enter(layer(args, kwargs) if callable(layer) else layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.exit()

        self._install(owner, name, original, shim)

    def count(self, owner, name, layer):
        """Count calls of ``owner.name`` under ``layer`` (no timing)."""
        original = inspect.getattr_static(owner, name)
        function = getattr(owner, name)
        calls = self.calls

        @functools.wraps(function)
        def shim(*args, **kwargs):
            calls[layer] += 1
            return function(*args, **kwargs)

        self._install(owner, name, original, shim)

    def patch(self, owner, name, replacement):
        """Replace ``owner.name`` outright (restored by ``unwrap``)."""
        self._install(owner, name, inspect.getattr_static(owner, name),
                      replacement)

    def _install(self, owner, name, original, shim):
        setattr(owner, name, shim)
        self._restore.append((owner, name, original))

    def unwrap(self):
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------

    def layers(self):
        return sorted(set(self.calls) | set(self.inclusive_s))


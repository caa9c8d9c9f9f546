"""Event primitives for the simulation kernel.

Events move through three states: *pending* (created, not scheduled),
*triggered* (scheduled on the environment's heap with a value), and
*processed* (callbacks have run).  Processes wait on events by yielding
them; the kernel resumes the process with the event's value, or throws
the event's exception into it if the event failed.

Every event class declares ``__slots__``: grid simulations allocate
millions of short-lived :class:`Timeout` and resumption events, and
dropping the per-instance ``__dict__`` measurably raises kernel
events/sec (``tests/sim/test_kernel.py`` holds a floor on it).
"""

from repro.sim.errors import SimulationError

PENDING = object()

#: Priority for ordinary events.  (Re-exported by ``repro.sim.kernel``;
#: defined here so :class:`Timeout` can self-schedule without importing
#: the kernel module.)
NORMAL = 1
#: Priority for process-resumption events (run before ordinary events at
#: the same timestamp so interrupts observe a consistent state).
URGENT = 0


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.kernel.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        # _defused: set once some waiter has consumed this event's
        # failure; an unconsumed failure crashes the run loop (errors
        # must never pass silently).
        self._defused = False

    @property
    def triggered(self):
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded; only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self):
        """The payload the event was triggered with."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self):
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Timeouts are the kernel's hottest allocation (every simulated wait
    is one), so construction takes a fast path: the event is born
    triggered and pushed straight onto the environment's heap, skipping
    the generic ``Event.__init__`` / ``Environment.schedule`` machinery.
    """

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + env.schedule(self, delay=delay): born
        # triggered-successful, one heap push, no intermediate calls.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._push_heap(
            env._heap, (env._now + delay, NORMAL, next(env._eid), self))

    def __repr__(self):
        return f"<Timeout delay={self.delay}>"


class ConditionValue(dict):
    """Mapping of event -> value for the events a condition collected."""


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("events", "_done")

    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed(ConditionValue())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self):
        raise NotImplementedError

    def _check(self, event):
        if self._value is not PENDING:
            event._defused = True  # condition already settled
            return
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            value = ConditionValue(
                (e, e._value) for e in self.events if e.triggered and e._ok)
            self.succeed(value)


class AllOf(_Condition):
    """Triggers once every event in ``events`` has succeeded."""

    __slots__ = ()

    def _satisfied(self):
        return self._done == len(self.events)


class AnyOf(_Condition):
    """Triggers as soon as any event in ``events`` succeeds."""

    __slots__ = ()

    def _satisfied(self):
        return self._done >= 1

"""The simulation environment: clock, event heap, and run loop."""

import heapq
from collections import defaultdict
from itertools import count

from repro.sim.errors import SimulationError
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = ["Environment", "NORMAL", "URGENT"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class Environment:
    """A discrete-event simulation environment.

    The environment owns the simulated clock (:attr:`now`), the event
    heap, and a registry of named seeded RNG streams so that independent
    stochastic components do not perturb each other's randomness.

    The scheduling hot path keeps module-local bindings of the ``heapq``
    functions (attribute lookups dominate once a run is pushing millions
    of events), and :class:`Timeout` self-schedules through
    :attr:`_push_heap` without the generic :meth:`schedule` indirection.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    seed:
        Master seed for the RNG registry.
    obs:
        Optional :class:`~repro.obs.Observability` facade.  When set,
        instrumented components publish events, metrics, and spans to
        it; when ``None`` (the default) every instrumentation site
        short-circuits on a single ``is not None`` test, so an
        unobserved simulation pays nothing.
    """

    #: Heap-push binding used by the :class:`Timeout` fast path.
    _push_heap = staticmethod(_heappush)

    def __init__(self, initial_time=0.0, seed=0, obs=None):
        self._now = float(initial_time)
        self._heap = []
        self._eid = count()
        #: kind -> serial counter behind :meth:`next_id`.
        self._ids = defaultdict(lambda: count(1))
        self.rng = RngRegistry(seed)
        self._active_process = None
        #: Total events processed by :meth:`step` over the environment's
        #: lifetime.  The fleet-scale tests divide this by VM-hours to gate
        #: the per-VM event budget; it is never reset.
        self.events_processed = 0
        #: Observability facade, or ``None`` for uninstrumented runs.
        self.obs = None
        if obs is not None:
            obs.attach(self)

    @property
    def now(self):
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently executing, if any."""
        return self._active_process

    def next_id(self, kind):
        """Next serial number (1, 2, ...) of ``kind`` objects in this run:
        every object id (``nvm-*``, ``i-*``, ...) comes from here, so ids
        never depend on what else ran in the process."""
        return next(self._ids[kind])

    # -- event construction helpers ------------------------------------

    def event(self):
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def all_of(self, events):
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that triggers when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling and execution --------------------------------------

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Place a triggered event on the heap ``delay`` seconds ahead."""
        _heappush(
            self._heap, (self._now + delay, priority, next(self._eid), event))

    def schedule_at(self, event, when, priority=NORMAL):
        """Place a triggered event on the heap at absolute time ``when``.

        Unlike :meth:`schedule`, which stores ``now + delay`` (one float
        addition whose rounding depends on the *current* clock), this
        stores ``when`` verbatim — callers that must land on an exact
        precomputed timestamp (the event-skipping spot-market drive)
        use it to reproduce the arrival times a step-by-step process
        would have accumulated.
        """
        if when < self._now:
            raise ValueError(
                f"when={when} is in the past (now={self._now})")
        _heappush(self._heap, (when, priority, next(self._eid), event))

    def timeout_at(self, when, value=None):
        """An event that triggers exactly at absolute time ``when``."""
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, when)
        return event

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        """Process the single next event on the heap.

        A failed event that no waiter consumed ("defused") re-raises
        its exception here — errors never pass silently.
        """
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _priority, _eid, event = _heappop(self._heap)
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the heap drains.  A number runs until the
            clock reaches that time.  An :class:`Event` runs until that
            event has been processed and returns its value (re-raising
            its exception if it failed).
        """
        heap = self._heap
        if until is None:
            step = self.step
            while heap:
                step()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(
                f"until={deadline} is in the past (now={self._now})")
        step = self.step
        while heap and heap[0][0] <= deadline:
            step()
        self._now = deadline
        return None

    def _run_until_event(self, until):
        done = []
        if until.callbacks is None:
            done.append(until)
        else:
            until.callbacks.append(done.append)
        heap = self._heap
        step = self.step
        while not done:
            if not heap:
                raise SimulationError(
                    "event heap drained before the awaited event triggered")
            step()
        if until._ok is False:
            raise until._value
        return until._value

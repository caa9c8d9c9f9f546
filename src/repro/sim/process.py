"""Generator-based simulation processes."""

from types import GeneratorType

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import PENDING, URGENT, Event


class Process(Event):
    """A coroutine driven by the event loop.

    A process wraps a generator that yields events.  Each time a yielded
    event triggers, the kernel resumes the generator with the event's
    value (or throws the event's exception into it).  The process itself
    is an event that triggers when the generator returns, carrying the
    generator's return value — so processes can wait on each other.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env, generator):
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError(f"{generator!r} is not a generator")
        # Inlined Event.__init__: every flush round starts processes.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._waiting_on = None
        # Bootstrap: resume the generator at the current time.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self):
        """True while the wrapped generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        first.
        """
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        interrupt_event = Event.__new__(Event)
        interrupt_event.env = self.env
        interrupt_event.callbacks = [self._resume]
        interrupt_event._value = Interrupt(cause)
        interrupt_event._ok = False
        interrupt_event._defused = True
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event):
        if self._value is not PENDING:
            return  # Process finished before a queued interrupt landed.
        # Detach from whatever we were waiting on if this is an interrupt.
        if self._waiting_on is not None and self._waiting_on is not event:
            waited = self._waiting_on
            if waited.callbacks is not None and self._resume in waited.callbacks:
                waited.callbacks.remove(self._resume)
        self._waiting_on = None

        self.env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                # This process consumes the failure by having it thrown
                # into its generator (it may catch it and continue).
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The process dies; its own event carries the failure to
            # whoever waits on it (or crashes the loop if nobody does).
            self.env._active_process = None
            self.fail(exc)
            return
        finally:
            self.env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded non-event {target!r}; yield events only")
        if target.callbacks is None:
            # Already processed: resume immediately at the current time.
            immediate = Event(self.env)
            immediate._ok = target._ok
            immediate._value = target._value
            immediate.callbacks.append(self._resume)
            self.env.schedule(immediate, priority=0)
            self._waiting_on = immediate
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

"""Exception types used by the simulation kernel."""


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, an arbitrary payload that
    the interrupted process can inspect (e.g. a revocation warning).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self):
        return f"Interrupt(cause={self.cause!r})"

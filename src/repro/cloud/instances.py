"""Native cloud instances (the host VMs SpotCheck rents)."""

import enum
from itertools import count

from repro.cloud.errors import InvalidOperation

_IDS = count(1)


class Market(enum.Enum):
    """Contract under which an instance was purchased."""

    ON_DEMAND = "on-demand"
    SPOT = "spot"


class InstanceState(enum.Enum):
    """Lifecycle of a native instance."""

    PENDING = "pending"
    RUNNING = "running"
    #: A spot instance that has received its revocation warning and will
    #: be force-terminated when the warning period elapses.
    MARKED_FOR_TERMINATION = "marked-for-termination"
    TERMINATED = "terminated"


class Instance:
    """A native VM rented from the cloud platform.

    Instances are created by :class:`repro.cloud.api.CloudApi`; user code
    observes state transitions and, for spot instances, subscribes to
    the revocation warning via :attr:`termination_notice`.
    """

    def __init__(self, env, itype, zone, market, bid=None):
        if market is Market.SPOT:
            if bid is None or bid <= 0:
                raise ValueError("spot instances require a positive bid")
        elif bid is not None:
            raise ValueError("on-demand instances take no bid")
        self.env = env
        self.id = f"i-{next(_IDS):08x}"
        self.itype = itype
        self.zone = zone
        self.market = market
        self.bid = bid
        self.state = InstanceState.PENDING
        self.launched_at = None
        self.terminated_at = None
        self.warned_at = None
        #: True once the platform force-terminated the instance after a
        #: revocation warning; a graceful terminate that raced the
        #: forced kill then succeeds idempotently instead of raising.
        self.revoked = False
        #: Event that fires with the forced-termination deadline when the
        #: platform issues a revocation warning (spot only).
        self.termination_notice = env.event()
        #: Event that fires when the instance reaches RUNNING.
        self.started = env.event()
        #: Event that fires when the instance reaches TERMINATED.
        self.terminated = env.event()
        self.volumes = []
        self.interfaces = []

    @property
    def is_running(self):
        return self.state in (
            InstanceState.RUNNING, InstanceState.MARKED_FOR_TERMINATION)

    @property
    def is_spot(self):
        return self.market is Market.SPOT

    def _mark_running(self):
        if self.state is not InstanceState.PENDING:
            raise InvalidOperation(
                f"{self.id}: cannot start from state {self.state}")
        self.state = InstanceState.RUNNING
        self.launched_at = self.env.now
        self.started.succeed(self)

    def _mark_warned(self):
        if self.state is not InstanceState.RUNNING:
            return  # Already terminated or warned; warning is idempotent.
        self.state = InstanceState.MARKED_FOR_TERMINATION
        self.warned_at = self.env.now

    def _mark_terminated(self):
        if self.state is InstanceState.TERMINATED:
            raise InvalidOperation(f"{self.id} already terminated")
        self.state = InstanceState.TERMINATED
        self.terminated_at = self.env.now
        self.terminated.succeed(self)

    def __repr__(self):
        return (f"<Instance {self.id} {self.itype.name} {self.zone} "
                f"{self.market.value} {self.state.value}>")

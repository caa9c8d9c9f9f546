"""Shared-resource primitives: counted resources, continuous containers,
and the multi-path processor-sharing bandwidth resource."""

from collections import deque

from repro.sim.errors import Interrupt
from repro.sim.events import Event


def fair_share_rates(demands, capacity):
    """Max-min fair (water-filling) allocation of one capacity.

    ``demands`` are the per-flow requested rates; the returned grants
    never exceed them, sum to at most ``capacity``, and are max-min
    fair: no grant can be raised without lowering a smaller one.
    """
    grants = [0.0] * len(demands)
    remaining = float(capacity)
    unfixed = list(range(len(demands)))
    while unfixed:
        level = remaining / len(unfixed)
        capped = [i for i in unfixed if demands[i] <= level]
        if not capped:
            for i in unfixed:
                grants[i] = level
            break
        for i in capped:
            grants[i] = float(demands[i])
            remaining -= grants[i]
            unfixed.remove(i)
    return grants


class _FairFlow:
    """One in-flight transfer on a :class:`FairShareResource`."""

    __slots__ = ("remaining", "size_bytes", "paths", "rate_cap", "kind",
                 "rate", "done", "started_at", "done_epsilon")

    def __init__(self, env, size_bytes, paths, rate_cap, kind):
        self.remaining = float(size_bytes)
        self.size_bytes = float(size_bytes)
        self.paths = paths
        self.rate_cap = rate_cap
        self.kind = kind
        self.rate = 0.0
        self.done = env.event()
        self.started_at = env.now
        # Progress arithmetic leaves float residues proportional to the
        # transfer size; treating them as unfinished would re-plan a
        # completion below the clock's resolution.
        self.done_epsilon = max(1e-6, 1e-12 * self.size_bytes)


class FairShareResource:
    """A processor-sharing bandwidth resource with multiple coupled paths.

    Models a device whose flows traverse one or more internal
    bottlenecks — e.g. a backup server whose restore reads cross both
    the disk read path and the NIC, while checkpoint commits cross the
    disk write path and the same NIC.  Each flow declares the paths it
    occupies; rates are the multi-path max-min fair (progressive
    filling) allocation, recomputed at every arrival and departure from
    the flows' *remaining* bytes, so early finishers release their
    bandwidth to the survivors mid-transfer.

    Parameters
    ----------
    env:
        Simulation environment.
    capacities:
        Mapping of path name to capacity in bytes/s.  A capacity may be
        a callable taking the list of flows currently on that path and
        returning the aggregate bytes/s — this expresses regimes whose
        throughput depends on the traffic mix (e.g. random demand-paged
        reads collapsing under concurrency).
    on_rebalance:
        Optional callback invoked with the resource after every rate
        recomputation (metrics/invariant hooks).

    Invariant: between events every flow's rate is constant and, on
    every path, the active flows' rates sum to at most the path's
    capacity (up to float rounding).
    """

    def __init__(self, env, capacities, on_rebalance=None):
        if not capacities:
            raise ValueError("need at least one path")
        for path, capacity in capacities.items():
            if not callable(capacity) and capacity <= 0:
                raise ValueError(f"capacity of path {path!r} must be positive")
        self.env = env
        self.capacities = dict(capacities)
        self.on_rebalance = on_rebalance
        self.flows = []
        #: Number of rate recomputations performed so far.
        self.rebalances = 0
        self._last_update = env.now
        self._wakeup = None

    # -- public API -------------------------------------------------------

    def transfer(self, size_bytes, paths=None, rate_cap=None, kind=None):
        """Start a transfer; returns an event firing on completion.

        ``paths`` selects the subset of configured paths the flow
        occupies (default: all of them); ``rate_cap`` bounds the flow's
        rate (the per-VM ``tc`` throttle); ``kind`` is an opaque tag
        capacity callables and metrics may inspect.  The completion
        event's value is the transfer's elapsed time.
        """
        if size_bytes <= 0:
            raise ValueError("size must be positive")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError("rate cap must be positive")
        if paths is None:
            paths = tuple(self.capacities)
        else:
            paths = tuple(paths)
            if not paths:
                raise ValueError("flow must occupy at least one path")
            unknown = [p for p in paths if p not in self.capacities]
            if unknown:
                raise ValueError(f"unknown paths {unknown!r}")
        self._advance()
        flow = _FairFlow(self.env, size_bytes, paths, rate_cap, kind)
        self.flows.append(flow)
        self._rebalance()
        return flow.done

    def flow_count(self, kind=None):
        """Active flows, optionally only those with the given kind tag."""
        if kind is None:
            return len(self.flows)
        return sum(1 for flow in self.flows if flow.kind == kind)

    def snapshot(self):
        """Per-path ``{"capacity", "rate_sum", "flows"}`` right now."""
        stats = {}
        for path in self.capacities:
            members = [f for f in self.flows if path in f.paths]
            stats[path] = {
                "capacity": self._capacity(path, members),
                "rate_sum": sum(f.rate for f in members),
                "flows": len(members),
            }
        return stats

    def utilization(self, path):
        """Allocated fraction of one path's current capacity."""
        members = [f for f in self.flows if path in f.paths]
        capacity = self._capacity(path, members)
        if capacity <= 0:
            return 0.0
        return sum(f.rate for f in members) / capacity

    # -- internals --------------------------------------------------------

    def _capacity(self, path, members):
        capacity = self.capacities[path]
        if callable(capacity):
            capacity = capacity(members)
        return float(capacity)

    def _advance(self):
        """Credit progress since the last event; complete finished flows."""
        elapsed = self.env.now - self._last_update
        self._last_update = self.env.now
        if not self.flows:
            return
        if elapsed > 0:
            for flow in self.flows:
                flow.remaining -= flow.rate * elapsed
        finished = [flow for flow in self.flows
                    if flow.remaining <= flow.done_epsilon]
        for flow in finished:
            self.flows.remove(flow)
            flow.done.succeed(self.env.now - flow.started_at)

    def _rebalance(self):
        """Recompute every flow's rate and re-plan the next completion."""
        rates = self._compute_rates(self.flows)
        for flow, rate in zip(self.flows, rates):
            flow.rate = rate
        self.rebalances += 1
        if self.on_rebalance is not None:
            self.on_rebalance(self)
        self._replan()

    def _compute_rates(self, flows):
        """Multi-path max-min fair rates of ``flows``, in flow order.

        Nearly every recomputation on a backup datapath sees zero flows
        or one (a lone cohort flush), so those get a closed form; two
        or more run :meth:`_progressive_filling`.
        """
        if len(flows) > 1:
            return self._progressive_filling(flows)
        if not flows:
            return []
        return [self._lone_rate(flows[0])]

    def _lone_rate(self, flow):
        """The progressive-filling rate of a flow that is alone.

        Its rate cap if the cap lies below its smallest path capacity,
        else that capacity: the general loop's first round, with the
        same float expressions (``max(capacity, 0.0)`` over one open
        flow) and the same first-minimum tie-break in path order.
        """
        paths = flow.paths
        level = None
        for path, capacity in self.capacities.items():
            if path not in paths:
                continue
            if callable(capacity):
                capacity = capacity([flow])
            capacity = max(float(capacity), 0.0)
            if level is None or capacity < level:
                level = capacity
        cap = flow.rate_cap
        if cap is not None and cap < level:
            return cap
        return level

    def _progressive_filling(self, flows):
        """Multi-path max-min fair allocation (progressive filling).

        Repeatedly: compute each path's equal-share water level over
        its still-unfixed flows; freeze flows whose rate cap sits below
        their attainable level at the cap, otherwise freeze the most
        constrained path's flows at its level, charging every path they
        cross.  Each round fixes at least one flow, and a fixed flow's
        rate never exceeds any of its paths' remaining capacity.  Flows
        are fixed, and paths charged, in flow order.
        """
        members = {}
        remaining = {}
        open_count = {}
        for path in self.capacities:
            on_path = [f for f in flows if path in f.paths]
            if on_path:
                members[path] = on_path
                remaining[path] = max(self._capacity(path, on_path), 0.0)
                open_count[path] = len(on_path)
        rates = {}
        unfixed = flows
        while unfixed:
            levels = {path: max(remaining[path], 0.0) / count
                      for path, count in open_count.items() if count}
            capped = []
            for flow in unfixed:
                cap = flow.rate_cap
                if cap is None:
                    continue
                # The flow's attainable level: the smallest water level
                # on its paths (every path of an unfixed flow is open).
                paths = flow.paths
                attainable = levels[paths[0]]
                for path in paths[1:]:
                    if levels[path] < attainable:
                        attainable = levels[path]
                if cap < attainable:
                    capped.append(flow)
            if capped:
                for flow in capped:
                    cap = flow.rate_cap
                    rates[flow] = cap
                    for path in flow.paths:
                        remaining[path] -= cap
                        open_count[path] -= 1
            else:
                bottleneck = min(levels, key=levels.get)
                level = levels[bottleneck]
                for flow in members[bottleneck]:
                    if flow in rates:
                        continue
                    rates[flow] = level
                    for path in flow.paths:
                        remaining[path] -= level
                        open_count[path] -= 1
            unfixed = [f for f in unfixed if f not in rates]
        return [rates.get(flow, 0.0) for flow in flows]

    def _replan(self):
        """Schedule a wakeup at the earliest flow-completion time."""
        if self._wakeup is not None and self._wakeup.is_alive:
            self._wakeup.interrupt()
            self._wakeup = None
        if not self.flows:
            return
        times = [flow.remaining / flow.rate
                 for flow in self.flows if flow.rate > 0]
        if not times:
            # Either idle, or every flow is rate-starved (a zero-capacity
            # regime); starved flows wait for the next arrival/departure.
            return
        # Never plan a wakeup below the clock's float resolution.
        next_done = max(min(times), 1e-9 * max(self.env.now, 1.0))
        self._wakeup = self.env.process(self._sleep_then_settle(next_done))

    def _sleep_then_settle(self, delay):
        try:
            yield self.env.timeout(delay)
        except Interrupt:
            return
        self._advance()
        self._rebalance()


class _Request(Event):
    """Pending acquisition of one resource slot."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO queue.

    Processes ``yield resource.request()`` to acquire a slot and call
    ``resource.release(request)`` (or use the request as a context
    manager) to return it.
    """

    def __init__(self, env, capacity=1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users = []
        self.queue = deque()

    @property
    def count(self):
        """Number of slots currently held."""
        return len(self.users)

    def request(self):
        """Return an event that triggers once a slot is granted."""
        req = _Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request):
        """Return a previously granted slot and wake the next waiter."""
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Container:
    """A continuous quantity (e.g. bytes of disk) with put/get semantics."""

    def __init__(self, env, capacity=float("inf"), init=0.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters = deque()
        self._putters = deque()

    @property
    def level(self):
        """Current stored amount."""
        return self._level

    def put(self, amount):
        """Event that triggers once ``amount`` fits into the container."""
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount):
        """Event that triggers once ``amount`` can be drawn."""
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self):
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed()
                    progress = True

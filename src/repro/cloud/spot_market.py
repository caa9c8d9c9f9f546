"""Per-(instance type, availability zone) spot markets.

Each market replays a price trace.  Whenever the market price rises
above a registered spot instance's bid, the platform issues a
revocation warning and forcibly terminates the instance when the
warning period (120 s on EC2) elapses — unless the instance was already
relinquished.  This is exactly the contract SpotCheck's bounded-time
migration is built against.

The drive is *threshold-indexed*: instead of waking the kernel at every
price step, the market keeps a sorted index of active thresholds
(instance bids, plus the bands of registered :class:`PriceWatch`
crossing listeners), precomputes the next trace index any of them cares
about with vectorized lookups over the trace arrays, and sleeps
straight to that point.  Price consumers are crossing watches
(:meth:`SpotMarket.add_watch`): each declares a price band and is woken
only at trace points inside it; points outside every active band and
below every registered bid are skipped without a kernel event.  A watch
with no bounds (the revocation predictor's) matches every point, so the
drive delivers each one.  Series consumers (pool price history) are
reconstructed lazily from the trace arrays via
:meth:`SpotMarket.delivered_count`.  An attached
:class:`~repro.obs.Observability` facade, which needs the per-point
``spot.price`` event stream, also makes the drive deliver every point.

Skipping is outcome-preserving: a skipped point is one at which, by
construction, the step drive would have warned nobody and every watch
callback's band predicate would have been false.  Wake timestamps
reproduce the step drive's *accumulated* clock (see ``_arrival``), so
warning deadlines and billing windows are bit-identical to the
step-by-step path.
"""

import bisect
from itertools import count

import numpy as np

from repro.cloud.instances import InstanceState, Market

#: EC2's spot revocation warning, seconds ("EC2 provides a warning of
#: 120 seconds before forcibly terminating a spot server").
DEFAULT_WARNING_PERIOD = 120.0


class PriceWatch:
    """A crossing listener: a callback plus the price band it fires in.

    The watch matches trace points with ``lo < price <= hi`` (either
    bound may be ``None`` for unbounded).  ``active`` is an optional
    zero-argument gate consulted when the drive plans its next wake-up
    and again at delivery: an inactive watch's crossings are skipped
    entirely, and it is not called back at points the drive wakes for
    on another listener's behalf.  Callers must
    :meth:`SpotMarket.rearm` the market when the gate opens.
    """

    __slots__ = ("lo", "hi", "callback", "active", "_match_cache",
                 "_last_match")

    def __init__(self, callback, lo=None, hi=None, active=None):
        if lo is not None and hi is not None and hi <= lo:
            raise ValueError(f"empty watch band ({lo}, {hi}]")
        self.callback = callback
        self.lo = lo
        self.hi = hi
        self.active = active if active is not None else (lambda: True)
        #: Sorted trace indices matching the band, built on first use.
        self._match_cache = None
        #: The last ``(start, next_match(start))`` answer.
        self._last_match = None

    def retune(self, lo=None, hi=None):
        """Move the band to ``(lo, hi]`` (None bounds stay unbounded).

        Invalidates the cached match index.  The owning market's drive
        loop replans after the current point is processed, so a watch
        retuned from its own callback needs nothing further; retuning
        from *outside* a delivery (or retuning watches on other
        markets) requires :meth:`SpotMarket.rearm` on each affected
        market, exactly like flipping an ``active`` gate open.
        """
        if lo is not None and hi is not None and hi <= lo:
            raise ValueError(f"empty watch band ({lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._match_cache = None
        self._last_match = None

    def matches(self, price):
        """Whether one price lies in this watch's band."""
        if self.lo is not None and price <= self.lo:
            return False
        if self.hi is not None and price > self.hi:
            return False
        return True

    def match_indices(self, prices):
        """Sorted trace indices inside the band (cached per trace)."""
        if self._match_cache is None:
            mask = np.ones(len(prices), dtype=bool)
            if self.lo is not None:
                mask &= prices > self.lo
            if self.hi is not None:
                mask &= prices <= self.hi
            self._match_cache = np.flatnonzero(mask)
        return self._match_cache

    def next_match(self, prices, start):
        """First matching trace index >= ``start``, or ``None``.

        O(1) for an unbounded band, and for a ``start`` between the
        last lookup's start and its answer (the answer cannot move).
        """
        if self.lo is None and self.hi is None:
            return start if start < len(prices) else None
        last = self._last_match
        if last is not None and last[0] <= start and \
                (last[1] is None or start <= last[1]):
            return last[1]
        matches = self.match_indices(prices)
        pos = int(np.searchsorted(matches, start))
        idx = int(matches[pos]) if pos < len(matches) else None
        self._last_match = (start, idx)
        return idx


class SpotMarket:
    """One spot market: a price trace plus the instances bidding in it."""

    def __init__(self, env, itype, zone, trace,
                 warning_period=DEFAULT_WARNING_PERIOD):
        if warning_period < 0:
            raise ValueError("warning period must be non-negative")
        self.env = env
        self.itype = itype
        self.zone = zone
        self.trace = trace
        self.warning_period = warning_period
        #: Registered spot instances, insertion-ordered by id.  A dict
        #: (not a list) so deregister is O(1) and a revocation storm
        #: deregistering mid-iteration cannot corrupt a scan.
        self._instances = {}
        self._watches = []
        self._warning_listeners = []
        self._revoke_callback = None
        self._times, self._prices = trace.arrays()
        if len(self._times) == 0:
            raise ValueError("price trace is empty")
        self._n = len(self._times)
        self._cursor = 0
        #: The step drive's accumulated clock after the last processed
        #: point.  ``now + (t - now)`` is not always exactly ``t`` in
        #: floats, and warning deadlines derive from wake times, so the
        #: skipping drive must reproduce the same accumulation.
        self._clock = env.now
        #: True when every per-point hop ``t[i-1] + (t[i] - t[i-1])``
        #: lands exactly on ``t[i]`` — then arrival times are just the
        #: trace times and the Python fold in ``_arrival`` is skipped.
        chain = getattr(trace, "exact_hop_chain", None)
        if chain is not None:
            self._exact_chain = chain()
        elif self._n > 1:
            hop = self._times[:-1] + (self._times[1:] - self._times[:-1])
            self._exact_chain = bool(np.all(hop == self._times[1:]))
        else:
            self._exact_chain = True
        #: Sorted (bid, seq, instance id) for registered, unwarned
        #: instances — the threshold index the drive plans against.
        self._bid_index = []
        self._reg_seq = count()
        self._bid_crossing_cache = None
        self._started = False
        self._parked = False
        self._processing = False
        #: Trace index the driver is currently sleeping toward, or
        #: ``None`` while parked/processing.
        self._sleep_index = None
        self._gen = 0
        self.stats = {"points": self._n, "wakes": 0, "delivered": 0,
                      "rearms": 0, "stale_skips": 0}
        self._driver = env.process(self._drive(0))

    @property
    def key(self):
        """Market key: (type name, zone name)."""
        return (self.itype.name, self.zone.name)

    def current_price(self):
        """The spot price in effect at the current simulated time."""
        return self.price_at(self.env.now)

    def price_at(self, when):
        """The spot price in effect at time ``when``."""
        idx = bisect.bisect_right(self._times, when) - 1
        if idx < 0:
            idx = 0
        return float(self._prices[idx])

    def delivered_count(self):
        """Leading trace points the step drive would have fed by now.

        Series consumers (pool price history) reconstruct their sample
        windows from ``prices[:delivered_count()]`` instead of
        accumulating per step.  Zero until the drive process first
        runs, so a consumer attached before the run starts sees the
        point at t=0 while one attached mid-run at t=0 (after the
        drive's initialization event) does not — matching when an
        unbounded watch registered at that moment starts hearing points.
        """
        if not self._started:
            return 0
        delivered = int(np.searchsorted(self._times, self.env.now,
                                        side="right"))
        # The cursor can be ahead during the wake instant itself if the
        # accumulated clock landed an ulp below the trace time.
        return max(delivered, self._cursor)

    def add_watch(self, watch):
        """Register a :class:`PriceWatch` crossing listener."""
        self._watches.append(watch)
        self.rearm()
        return watch

    def on_warning(self, callback):
        """Call ``callback(market, instance, deadline)`` at each warning.

        A passive tap on the warning path: unlike a watch it does not
        change the drive's wake planning, so shard event taps
        can observe revocation warnings without altering when (or how
        often) the market wakes — which would break bit-identity with
        an untapped run.
        """
        self._warning_listeners.append(callback)

    def set_revoke_callback(self, callback):
        """Install the platform hook run at each forced termination.

        ``callback(instance)`` is invoked when the warning period of a
        still-running instance elapses; the API layer uses it to tear
        down volumes and interfaces.
        """
        self._revoke_callback = callback

    def register(self, instance):
        """Enter a spot instance into the market.

        If the current price already exceeds the bid the instance is
        warned immediately (EC2 would never have started it, but the
        race between allocation latency and a price spike makes this
        reachable — the platform resolves it by immediate revocation).
        """
        if instance.market is not Market.SPOT:
            raise ValueError(f"{instance.id} is not a spot instance")
        if instance.itype is not self.itype or instance.zone != self.zone:
            raise ValueError(f"{instance.id} does not belong to {self.key}")
        self._instances[instance.id] = instance
        if self.current_price() > instance.bid:
            self._warn(instance)
        else:
            bisect.insort(self._bid_index,
                          (instance.bid, next(self._reg_seq), instance.id))
            self.rearm()

    def deregister(self, instance):
        """Remove an instance (terminated or relinquished)."""
        # The bid index keeps its (now stale) entry; the drive prunes
        # stale entries lazily.  A raised threshold can only make the
        # next planned wake early, never late, so no rearm is needed.
        self._instances.pop(instance.id, None)

    def instances(self):
        """Spot instances currently registered in this market."""
        return list(self._instances.values())

    def rearm(self):
        """Recompute the next wake-up after a threshold-set change.

        Cheap when nothing moved: the sleeping driver is only replaced
        when the new plan is strictly earlier than its pending wake-up
        (or when the driver parked because nothing needed waking).  The
        kernel has no interrupts, so a replaced driver is invalidated
        by a generation bump and returns as a no-op when its stale
        timeout fires.
        """
        if not self._started or self._processing or self._cursor >= self._n:
            return
        target = self._next_wake_index()
        if target is None:
            return
        if self._sleep_index is not None and target >= self._sleep_index:
            return
        self._gen += 1
        self._sleep_index = None
        self._parked = False
        self.stats["rearms"] += 1
        self._driver = self.env.process(self._drive(self._gen))

    def drive_stats(self):
        """Drive counters: points, wakes, delivered, rearms, stale_skips."""
        return dict(self.stats)

    # -- internal ------------------------------------------------------

    def _step_mode(self):
        """Whether every trace point must be delivered individually."""
        return self.env.obs is not None

    def _min_active_bid(self):
        """Smallest bid among live registered instances, or ``None``."""
        index = self._bid_index
        while index:
            _bid, _seq, iid = index[0]
            instance = self._instances.get(iid)
            if instance is not None and \
                    instance.state is InstanceState.RUNNING:
                return index[0][0]
            del index[0]
        return None

    def _next_bid_crossing(self, threshold, start):
        """First index >= ``start`` with price above ``threshold``."""
        cached = self._bid_crossing_cache
        if cached is None or cached[0] != threshold:
            cached = (threshold, np.flatnonzero(self._prices > threshold))
            self._bid_crossing_cache = cached
        crossings = cached[1]
        pos = int(np.searchsorted(crossings, start))
        if pos >= len(crossings):
            return None
        return int(crossings[pos])

    def _next_wake_index(self):
        """The next trace index anything cares about, or ``None``."""
        start = self._cursor
        if start >= self._n:
            return None
        if self._step_mode():
            return start
        best = None
        for watch in self._watches:
            if not watch.active():
                continue
            idx = watch.next_match(self._prices, start)
            if idx == start:
                return start  # Nothing can come earlier.
            if idx is not None and (best is None or idx < best):
                best = idx
        bid = self._min_active_bid()
        if bid is not None:
            idx = self._next_bid_crossing(bid, start)
            if idx is not None and (best is None or idx < best):
                best = idx
        return best

    def _arrival(self, target):
        """The step drive's clock on reaching ``target``.

        Folds the per-point ``clock + (t - clock)`` accumulation over
        any skipped points so the wake timestamp — and every warning
        deadline derived from it — is bit-identical to the step path.
        """
        times = self._times
        clock = self._clock
        if self._exact_chain:
            when = times[target]
            if when <= clock:
                return clock
            # The shortcut needs the clock itself to sit on the chain:
            # either before the first hop (x - 0.0 and 0.0 + x are
            # exact) or exactly on the previously processed point.
            if clock == 0.0 or \
                    (self._cursor > 0 and clock == times[self._cursor - 1]):
                return when
        for k in range(self._cursor, target + 1):
            tk = times[k]
            if tk > clock:
                clock = clock + (tk - clock)
        return clock

    def _skip_elapsed(self):
        """Advance past points whose arrival time has already elapsed.

        A rearm can restart the driver long after it slept over points
        that crossed none of the *then*-active thresholds.  The step
        drive delivered those points at their own times — before the
        threshold-set change that triggered the rearm — so replaying
        them now, under the new thresholds, would act on stale prices.
        They are provably no-ops under the old set; consume them
        silently, keeping the accumulated clock exact.  Returns the
        arrival time of the point now at the cursor (``None`` at the
        end of the trace).
        """
        now = self.env.now
        while self._cursor < self._n:
            when = self._arrival(self._cursor)
            if when >= now:
                return when
            self._clock = when
            self._cursor += 1
            self.stats["stale_skips"] += 1
        return None

    def _drive(self, gen):
        """Process: replay the trace, waking only at indexed thresholds."""
        env = self.env
        self._started = True
        self._parked = False
        while self._cursor < self._n:
            when = self._skip_elapsed()
            target = self._next_wake_index()
            if target is None:
                self._parked = True
                return  # Nothing to wake for; rearm() restarts us.
            if target >= self._n:
                break
            if target != self._cursor:
                when = self._arrival(target)
            if when > env.now:
                self._sleep_index = target
                self.stats["wakes"] += 1
                yield env.timeout_at(when)
                if self._gen != gen:
                    return  # Superseded by a rearm while sleeping.
                self._sleep_index = None
            self._process_point(target, when)
        obs = env.obs
        if obs is not None:
            obs.emit("spot.drive", type=self.itype.name, zone=self.zone.name,
                     **{k: self.stats[k]
                        for k in ("points", "wakes", "delivered",
                                  "rearms", "stale_skips")})

    def _process_point(self, target, when):
        """Deliver one trace point: emit, notify, and scan for warns."""
        self._processing = True
        try:
            self._cursor = target + 1
            self._clock = when
            price = float(self._prices[target])
            self.stats["delivered"] += 1
            obs = self.env.obs
            if obs is not None:
                obs.emit("spot.price", type=self.itype.name,
                         zone=self.zone.name, price=price)
            for watch in list(self._watches):
                if watch.matches(price) and watch.active():
                    watch.callback(self, price)
            self._warn_outbid(price)
        finally:
            self._processing = False

    def _warn_outbid(self, price):
        """Warn every live instance whose bid the price crossed.

        The sorted bid index yields the outbid prefix in O(log n + k);
        warnings are issued in registration order (the order the step
        drive's linear scan used), which keeps process creation — and
        therefore event ids — identical.
        """
        index = self._bid_index
        pos = bisect.bisect_left(index, (price,))
        if not pos:
            return
        outbid = index[:pos]
        del index[:pos]
        outbid.sort(key=lambda entry: entry[1])
        for _bid, _seq, iid in outbid:
            instance = self._instances.get(iid)
            if instance is not None and \
                    instance.state is InstanceState.RUNNING:
                self._warn(instance)

    def _warn(self, instance):
        instance._mark_warned()
        deadline = self.env.now + self.warning_period
        obs = self.env.obs
        if obs is not None:
            obs.emit("spot.warning", type=self.itype.name,
                     zone=self.zone.name, instance=instance.id,
                     bid=instance.bid, deadline=deadline)
            obs.metrics.counter("spot_warnings_total",
                                type=self.itype.name,
                                zone=self.zone.name).inc()
        for listener in list(self._warning_listeners):
            listener(self, instance, deadline)
        if not instance.termination_notice.triggered:
            instance.termination_notice.succeed(deadline)
        self.env.process(self._terminate_after_warning(instance))

    def _terminate_after_warning(self, instance):
        yield self.env.timeout(self.warning_period)
        if instance.state is InstanceState.MARKED_FOR_TERMINATION:
            obs = self.env.obs
            if obs is not None:
                obs.emit("spot.termination", type=self.itype.name,
                         zone=self.zone.name, instance=instance.id)
            if self._revoke_callback is not None:
                self._revoke_callback(instance)
            else:
                instance._mark_terminated()
            self.deregister(instance)


class SpotMarketplace:
    """All spot markets of the platform, keyed by (type name, zone name)."""

    def __init__(self, env, warning_period=DEFAULT_WARNING_PERIOD):
        self.env = env
        self.warning_period = warning_period
        self._markets = {}

    def add_market(self, itype, zone, trace):
        key = (itype.name, zone.name)
        if key in self._markets:
            raise ValueError(f"market {key} already exists")
        market = SpotMarket(self.env, itype, zone, trace,
                            warning_period=self.warning_period)
        self._markets[key] = market
        return market

    def market(self, itype, zone):
        """The market for ``(itype, zone)`` (names or objects accepted)."""
        type_name = itype if isinstance(itype, str) else itype.name
        zone_name = zone if isinstance(zone, str) else zone.name
        try:
            return self._markets[(type_name, zone_name)]
        except KeyError:
            raise KeyError(f"no spot market for ({type_name}, {zone_name})") \
                from None

    def drive_stats(self):
        """Aggregate drive counters across every market."""
        totals = {}
        for market in self:
            for name, value in market.drive_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __contains__(self, key):
        return key in self._markets

    def __iter__(self):
        return iter(self._markets.values())

    def __len__(self):
        return len(self._markets)

    def keys(self):
        return list(self._markets)

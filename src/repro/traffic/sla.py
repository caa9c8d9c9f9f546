"""Per-customer SLA ledgers: latency quantiles and error budgets.

A :class:`SlaLedger` receives *batched* request accounting from the
traffic engine — "N requests over ``[t0, t1)`` at lognormal latency
around ``mean_ms``", or "N requests failed, the VM was down" — and
maintains:

* a **request-weighted latency distribution** on a fixed log-spaced
  bucket grid.  Each batch adds its closed-form lognormal bucket mass
  (one vectorized ``erf`` over the edges), so p50/p95/p99 are exact up
  to bucket resolution and a million-request batch costs the same as a
  ten-request one;
* a stream of **representative samples** into the existing
  :class:`repro.obs.metrics.Histogram` P2 estimators
  (``sla_latency_ms{customer=...}``), so the standard exporters and
  ``repro obs summarize`` see SLA latency series without any new
  plumbing — a bounded number of equal-mass quantile draws per batch,
  deterministic (no RNG);
* a **monthly-style error budget** per SLO window: a request is *good*
  when it succeeds within ``latency_ms``; the window's budget is
  ``(1 - availability)`` of the window's expected request volume
  (closed-form from the arrival pattern), burn is bad-requests over
  budget, and the first moment a window's burn crosses 1.0 emits an
  ``sla.breach`` event on the obs bus.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, ndtri

_SQRT2 = math.sqrt(2.0)

#: Latency shapes memoized per ledger before the memo starts over.
#: Means are few in practice (customer x {running, degraded}), but a
#: continuous backup-overload factor can make them unbounded.
SHAPE_MEMO_CAP = 256


@dataclass(frozen=True)
class SlaTarget:
    """One customer's service-level objective.

    A request is *good* when it succeeds and responds within
    ``latency_ms``; the SLO asks that at least ``availability`` of the
    requests in each ``window_s`` window be good.
    """

    latency_ms: float = 100.0
    availability: float = 0.999
    window_s: float = 30 * 24 * 3600.0

    def __post_init__(self):
        if self.latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("availability must lie in (0, 1)")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")

    @property
    def budget_fraction(self):
        """The fraction of requests allowed to be bad per window."""
        return 1.0 - self.availability


def lognormal_params(mean_ms, latency_cov):
    """``(mu, sigma)`` of a lognormal with given mean and CoV."""
    sigma2 = math.log(1.0 + latency_cov ** 2)
    return math.log(mean_ms) - sigma2 / 2.0, math.sqrt(sigma2)


class SlaLedger:
    """Streaming SLA accounting for one customer.

    Parameters
    ----------
    name:
        Customer label, used for obs metric/event labels.
    target:
        The :class:`SlaTarget` this ledger is scored against.
    obs:
        Optional :class:`repro.obs.Observability`; when set, the ledger
        feeds ``sla_latency_ms`` P2 histograms, publishes
        ``sla.breach`` events, and updates budget gauges.
    latency_cov:
        Coefficient of variation of each batch's lognormal.
    grid_size / grid_lo_ms / grid_hi_ms:
        The shared log-spaced latency bucket grid.  600 s is far above
        any modeled response time; mass beyond the top edge (none in
        practice) is clamped into the last bucket.
    p2_samples_per_batch:
        Representative equal-mass quantile draws fed to the P2
        histograms per accounted batch (0 disables the feed).  Bounded
        per batch, so the obs cost is O(segments), never O(requests).

    A batch's latency shape (bucket masses, slow-tail fraction, P2
    samples) depends only on its ``mean_ms``: the CoV, grid and target
    are fixed per ledger.  So each distinct mean is solved once and
    reused; see :meth:`_shape`.
    """

    def __init__(self, name, target=None, obs=None, latency_cov=0.35,
                 grid_size=512, grid_lo_ms=1.0, grid_hi_ms=600000.0,
                 p2_samples_per_batch=8):
        if latency_cov <= 0:
            raise ValueError("latency_cov must be positive")
        self.name = name
        self.target = target or SlaTarget()
        self.obs = obs
        self.latency_cov = latency_cov
        self._edges = np.geomspace(grid_lo_ms, grid_hi_ms, grid_size + 1)
        self._log_edges = np.log(self._edges)
        self._mass = np.zeros(grid_size)
        self.p2_samples_per_batch = p2_samples_per_batch
        if p2_samples_per_batch > 0:
            # Midpoints of equal-probability strata: deterministic
            # standard-normal draws shared by every batch.
            probs = (np.arange(p2_samples_per_batch) + 0.5) \
                / p2_samples_per_batch
            self._sample_z = ndtri(probs)
        else:
            self._sample_z = None
        #: mean_ms -> (bucket masses, slow fraction, P2 samples).
        self._shapes = {}
        #: Obs series handles by metric name, fetched on first use.
        self._series = {}

        # Lifetime totals.
        self.total_requests = 0.0
        self.failed_requests = 0.0
        #: Successful requests slower than the SLA threshold.
        self.slow_requests = 0.0
        self.accounted_s = 0.0
        self.down_s = 0.0
        self.degraded_s = 0.0
        #: Seconds spent in segments burning faster than the budget
        #: rate (the SRE notion of "time in violation").
        self.violation_s = 0.0

        # Current-window state (engine drives the window lifecycle).
        self.window_index = -1
        self.window_start = None
        self.window_end = None
        self.window_budget = 0.0
        self.window_requests = 0.0
        self.window_bad = 0.0
        self.window_breached = False
        #: Closed windows: dicts with start/end/requests/bad/burn/breached.
        self.windows = []
        self.breaches = 0

    # -- window lifecycle ----------------------------------------------

    def begin_window(self, start, end, expected_requests):
        """Open an SLO window with its closed-form expected volume."""
        self.window_index += 1
        self.window_start = start
        self.window_end = end
        self.window_budget = self.target.budget_fraction * expected_requests
        self.window_requests = 0.0
        self.window_bad = 0.0
        self.window_breached = False

    def roll_window(self):
        """Close the current window; returns its summary dict."""
        burn = self.window_burn
        record = {
            "index": self.window_index,
            "start": self.window_start,
            "end": self.window_end,
            "requests": self.window_requests,
            "bad": self.window_bad,
            "budget": self.window_budget,
            "burn": burn,
            "breached": self.window_breached,
        }
        self.windows.append(record)
        return record

    @property
    def window_burn(self):
        """Fraction of the current window's error budget consumed."""
        if self.window_budget <= 0:
            return 0.0 if self.window_bad <= 0 else float("inf")
        return self.window_bad / self.window_budget

    # -- accounting -----------------------------------------------------

    def account_down(self, t0, t1, requests):
        """``requests`` arrivals over ``[t0, t1)`` all failed."""
        duration = t1 - t0
        self.total_requests += requests
        self.failed_requests += requests
        self.accounted_s += duration
        self.down_s += duration
        self.violation_s += duration
        self._note_bad(requests, requests)

    def account_latency(self, t0, t1, requests, mean_ms, degraded=False):
        """``requests`` arrivals over ``[t0, t1)`` at lognormal
        latency around ``mean_ms``; counts the slow tail against the
        SLA threshold in closed form."""
        duration = t1 - t0
        self.total_requests += requests
        self.accounted_s += duration
        if degraded:
            self.degraded_s += duration
        if requests <= 0:
            return
        mass, slow_frac, samples = self._shape(mean_ms)
        self._mass += requests * mass
        slow = requests * slow_frac
        self.slow_requests += slow
        if slow / requests > self.target.budget_fraction:
            self.violation_s += duration
        self._note_bad(requests, slow)
        self._feed_p2(samples)

    def _shape(self, mean_ms):
        """The memoized lognormal solve for batches around ``mean_ms``.

        Returns ``(mass, slow_frac, samples)``: the per-request bucket
        masses, the fraction of requests slower than the SLA threshold,
        and the representative P2 samples (``None`` when the feed is
        off).  A batch of ``requests`` adds ``requests * mass`` and
        counts ``requests * slow_frac`` slow: the same operands an
        uncached solve multiplies, so the same bits.
        """
        shape = self._shapes.get(mean_ms)
        if shape is not None:
            return shape
        if len(self._shapes) >= SHAPE_MEMO_CAP:
            self._shapes.clear()
        mu, sigma = lognormal_params(mean_ms, self.latency_cov)
        # Bucket mass: P(edge_k < X <= edge_{k+1}) via the lognormal
        # CDF at every edge, vectorized.  Mass above the top edge is
        # clamped into the last bucket (none lands there in practice).
        cdf = 0.5 * (1.0 + erf((self._log_edges - mu) / (sigma * _SQRT2)))
        cdf[0] = 0.0
        cdf[-1] = 1.0
        mass = np.diff(cdf)
        mass.flags.writeable = False
        z_sla = (math.log(self.target.latency_ms) - mu) / (sigma * _SQRT2)
        slow_frac = 1.0 - 0.5 * (1.0 + erf(z_sla))
        samples = None
        if self._sample_z is not None:
            # Python floats through math.exp: np.exp need not round
            # like libm's exp, which defines the samples.
            samples = tuple(math.exp(mu + sigma * z)
                            for z in self._sample_z.tolist())
        shape = self._shapes[mean_ms] = (mass, slow_frac, samples)
        return shape

    def _metric(self, kind, name):
        """This customer's ``name`` series, registered on first use."""
        series = self._series.get(name)
        if series is None:
            series = getattr(self.obs.metrics, kind)(name,
                                                     customer=self.name)
            self._series[name] = series
        return series

    def _note_bad(self, requests, bad):
        """Window bookkeeping shared by the down and latency paths."""
        self.window_requests += requests
        self.window_bad += bad
        obs = self.obs
        if obs is not None:
            self._metric("counter", "traffic_requests_total").inc(requests)
            if bad > 0:
                self._metric("counter", "sla_bad_requests_total").inc(bad)
            self._metric("gauge", "sla_budget_burn").set(self.window_burn)
        if not self.window_breached and self.window_budget > 0 and \
                self.window_bad > self.window_budget:
            self.window_breached = True
            self.breaches += 1
            if obs is not None:
                obs.emit("sla.breach", customer=self.name,
                         window=self.window_index,
                         bad=self.window_bad, budget=self.window_budget)
                self._metric("counter", "sla_breaches_total").inc()

    def _feed_p2(self, samples):
        """Representative samples into the obs P2 latency histogram."""
        if self.obs is None or samples is None:
            return
        self._metric("histogram", "sla_latency_ms").observe_many(samples)

    # -- reporting ------------------------------------------------------

    def quantile(self, q):
        """Request-weighted latency quantile from the bucket grid.

        Log-linear interpolation inside the bucket; ``nan`` before any
        successful request is accounted.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        total = float(self._mass.sum())
        if total <= 0:
            return float("nan")
        cumulative = np.cumsum(self._mass)
        rank = q * total
        index = int(np.searchsorted(cumulative, rank))
        index = min(index, len(self._mass) - 1)
        below = cumulative[index - 1] if index > 0 else 0.0
        bucket = cumulative[index] - below
        frac = (rank - below) / bucket if bucket > 0 else 0.5
        lo, hi = self._log_edges[index], self._log_edges[index + 1]
        return float(math.exp(lo + frac * (hi - lo)))

    @property
    def bad_requests(self):
        return self.failed_requests + self.slow_requests

    @property
    def attainment(self):
        """Lifetime fraction of good requests (1.0 when idle)."""
        if self.total_requests <= 0:
            return 1.0
        return 1.0 - self.bad_requests / self.total_requests

    @property
    def error_rate(self):
        if self.total_requests <= 0:
            return 0.0
        return self.failed_requests / self.total_requests

    def snapshot(self):
        """A plain-dict summary (picklable, JSON-able)."""
        return {
            "customer": self.name,
            "sla_latency_ms": self.target.latency_ms,
            "sla_availability": self.target.availability,
            "total_requests": self.total_requests,
            "failed_requests": self.failed_requests,
            "slow_requests": self.slow_requests,
            "error_rate": self.error_rate,
            "attainment": self.attainment,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
            "accounted_s": self.accounted_s,
            "down_s": self.down_s,
            "degraded_s": self.degraded_s,
            "violation_s": self.violation_s,
            "breaches": self.breaches,
            "windows": list(self.windows),
            "window_burn": self.window_burn,
        }

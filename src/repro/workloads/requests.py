"""Request-level view: what SpotCheck's disruptions do to end users.

The paper argues SpotCheck makes interactive applications viable on
spot servers.  This module makes that claim measurable at the request
level: it converts a nested VM's state history into a timeline of
workload conditions, overlays an open-loop request stream, and reports
the latency distribution and error rate a client population would see.

Responses within one condition are modelled as lognormal around the
workload's mean for that condition (a standard fit for web latencies);
requests arriving during downtime windows fail (or time out) and count
toward the error rate, not the latency distribution.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, ndtri

from repro.virt.vm import VMState
from repro.workloads.base import Conditions


@dataclass(frozen=True)
class RequestStats:
    """The client-visible outcome of a period of operation."""

    total_requests: float
    failed_requests: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Fraction of *successful* requests slower than the SLA threshold.
    sla_threshold_ms: float
    sla_violation_rate: float

    @property
    def error_rate(self):
        if self.total_requests == 0:
            return 0.0
        return self.failed_requests / self.total_requests


@dataclass(frozen=True)
class ConditionSegment:
    """A stretch of time under one set of workload conditions."""

    start: float
    end: float
    conditions: Conditions
    down: bool = False

    @property
    def duration(self):
        return self.end - self.start


def conditions_for_state(state, checkpointing_while_running=True):
    """The workload :class:`Conditions` a VM state imposes.

    Returns ``None`` for down states (SUSPENDED, PROVISIONING,
    TERMINATED): requests arriving then fail rather than slow down.
    MIGRATING always maps to degraded (checkpointing) conditions —
    pre-copy competes with the guest for I/O regardless of whether
    steady-state checkpointing is being modelled.
    """
    if state in (VMState.SUSPENDED, VMState.PROVISIONING,
                 VMState.TERMINATED):
        return None
    if state is VMState.RESTORING:
        return Conditions(restoring=True, restore_concurrency=1)
    if state is VMState.MIGRATING:
        return Conditions(checkpointing=True)
    return Conditions(checkpointing=checkpointing_while_running)


def timeline_from_vm(vm, start, end, checkpointing_while_running=True):
    """Derive condition segments from a nested VM's state log.

    RUNNING maps to normal (checkpointing) operation, MIGRATING to the
    pre-copy/ramp window (mildly degraded — modelled as checkpointing
    conditions, independent of ``checkpointing_while_running``),
    RESTORING to the demand-paging window, and SUSPENDED/PROVISIONING
    to downtime.
    """
    segments = []
    log = vm.state_log
    for index, (when, state) in enumerate(log):
        seg_end = log[index + 1][0] if index + 1 < len(log) else end
        lo, hi = max(when, start), min(seg_end, end)
        if hi <= lo:
            continue
        conditions = conditions_for_state(state, checkpointing_while_running)
        if conditions is None:
            segments.append(ConditionSegment(lo, hi, Conditions(),
                                             down=True))
        else:
            segments.append(ConditionSegment(lo, hi, conditions))
    return segments


class RequestAnalyzer:
    """Overlays an open-loop request stream on a condition timeline.

    Parameters
    ----------
    workload:
        A response-time workload (TPC-W-like: ``response_time_ms``).
    latency_cov:
        Coefficient of variation of the per-condition lognormal.
    """

    def __init__(self, workload, latency_cov=0.35):
        if latency_cov <= 0:
            raise ValueError("latency_cov must be positive")
        self.workload = workload
        self.latency_cov = latency_cov

    def _lognormal_params(self, mean_ms):
        sigma2 = np.log(1.0 + self.latency_cov ** 2)
        mu = np.log(mean_ms) - sigma2 / 2.0
        return mu, np.sqrt(sigma2)

    def analyze(self, segments, rate_rps, sla_threshold_ms=100.0,
                grid_size=4096):
        """Compute :class:`RequestStats` for ``rate_rps`` arrivals/s.

        The mixture's quantiles are computed numerically on a shared
        latency grid; exact for the per-segment lognormals up to grid
        resolution.
        """
        if rate_rps <= 0:
            raise ValueError("request rate must be positive")
        weights, means = [], []
        failed_s = 0.0
        for segment in segments:
            if segment.down:
                failed_s += segment.duration
            else:
                weights.append(segment.duration)
                means.append(self.workload.response_time_ms(
                    segment.conditions))
        total_requests = rate_rps * (sum(weights) + failed_s)
        failed_requests = rate_rps * failed_s
        if not weights:
            return RequestStats(
                total_requests=total_requests,
                failed_requests=failed_requests,
                mean_ms=float("nan"), p50_ms=float("nan"),
                p95_ms=float("nan"), p99_ms=float("nan"),
                sla_threshold_ms=sla_threshold_ms,
                sla_violation_rate=0.0)

        weights = np.asarray(weights, dtype=float)
        weights /= weights.sum()
        means = np.asarray(means, dtype=float)

        # Shared latency grid sized to the mixture's actual spread:
        # each lognormal's 0.05th..99.995th percentile, so heavy tails
        # (large latency_cov) stay on the grid instead of silently
        # clamping to the top edge.
        mu_all, sigma = self._lognormal_params(means)
        low = float(np.exp(mu_all.min() + sigma * ndtri(0.0005)))
        high = float(np.exp(mu_all.max() + sigma * ndtri(0.99995)))
        grid = np.geomspace(low, high, grid_size)
        cdf = np.zeros_like(grid)
        sla_violations = 0.0
        for weight, mean in zip(weights, means):
            mu, sigma = self._lognormal_params(mean)
            z = (np.log(grid) - mu) / (sigma * np.sqrt(2.0))
            cdf += weight * 0.5 * (1.0 + erf(z))
            z_sla = (np.log(sla_threshold_ms) - mu) / (sigma * np.sqrt(2.0))
            sla_violations += weight * (1.0 - 0.5 * (1.0 + erf(z_sla)))

        def quantile(q):
            if q > cdf[-1]:
                raise ValueError(
                    f"latency grid covers only the {cdf[-1]:.6f} "
                    f"quantile; cannot report q={q}")
            index = int(np.searchsorted(cdf, q))
            return float(grid[min(index, grid_size - 1)])

        return RequestStats(
            total_requests=total_requests,
            failed_requests=failed_requests,
            mean_ms=float(np.dot(weights, means)),
            p50_ms=quantile(0.50),
            p95_ms=quantile(0.95),
            p99_ms=quantile(0.99),
            sla_threshold_ms=sla_threshold_ms,
            sla_violation_rate=float(sla_violations),
        )

    def analyze_vm(self, vm, start, end, rate_rps, **kwargs):
        """Timeline + analysis in one step."""
        segments = timeline_from_vm(vm, start, end)
        return self.analyze(segments, rate_rps, **kwargs)

"""Control-plane operation latencies, calibrated to the paper's Table 1.

The paper measured the latency of each EC2 operation 20 times over a
week for the m3.medium type and reports median, mean, max and min.  We
model each operation as a lognormal distribution clipped to the
observed [min, max] range, with the lognormal's median pinned to the
observed median and its spread calibrated numerically so that the
clipped distribution's *mean* matches the observed mean.  This keeps all
four reported statistics simultaneously credible.
"""

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencySpec:
    """The four summary statistics Table 1 reports for one operation."""

    name: str
    median: float
    mean: float
    max: float
    min: float

    def __post_init__(self):
        if not self.min <= self.median <= self.max:
            raise ValueError(f"{self.name}: median outside [min, max]")
        if not self.min <= self.mean <= self.max:
            raise ValueError(f"{self.name}: mean outside [min, max]")


#: Table 1, verbatim (seconds, m3.medium, 20 samples over one week).
TABLE1_SPECS = {
    "start_spot_instance": LatencySpec("start_spot_instance", 227, 224, 409, 100),
    "start_on_demand_instance": LatencySpec(
        "start_on_demand_instance", 61, 62, 86, 47),
    "terminate_instance": LatencySpec("terminate_instance", 135, 136, 147, 133),
    "detach_volume": LatencySpec("detach_volume", 10.3, 10.3, 11.3, 9.6),
    "attach_volume": LatencySpec("attach_volume", 5, 5.1, 9.3, 4.4),
    "attach_network_interface": LatencySpec(
        "attach_network_interface", 3, 3.75, 14, 1),
    "detach_network_interface": LatencySpec(
        "detach_network_interface", 2, 3.5, 12, 1),
}

#: Mean downtime the paper attributes to EC2 operations per migration:
#: detach + attach of the EBS volume and the network interface, which
#: can only happen while the nested VM is paused ("these operations (in
#: bold) cause an average downtime of 22.65 seconds").
EC2_MIGRATION_DOWNTIME_OPS = (
    "detach_volume",
    "attach_volume",
    "attach_network_interface",
    "detach_network_interface",
)

#: Points of the log-space grid on which the clipped mean is integrated.
MEAN_GRID_POINTS = 4096


class ClippedLognormal:
    """A lognormal restricted to [min, max], fit to median and mean.

    Sampling is inverse-CDF restricted to the [min, max] quantile band
    (i.e. the base lognormal conditioned on landing in the band), which
    preserves the distribution's shape inside the band.  ``mu`` and
    ``sigma`` are calibrated jointly — alternately pinning the clipped
    *median* to the spec's median (via ``mu``) and the clipped *mean*
    to the spec's mean (via ``sigma``) — so both reported statistics of
    Table 1 are matched simultaneously even for heavily skewed
    operations.
    """

    def __init__(self, spec):
        self.spec = spec
        if spec.max == spec.min:
            self._mu = np.log(spec.median)
            self._sigma = 0.0
        else:
            # The integration grid depends on the spec alone, so all
            # ~1,300 mean evaluations of one calibration reuse it.
            self._z = np.linspace(np.log(spec.min), np.log(spec.max),
                                  MEAN_GRID_POINTS)
            self._exp_z = np.exp(self._z)
            self._calibrate()
        self._q_low, self._q_high = self._quantile_band(
            self._mu, self._sigma)

    def _quantile_band(self, mu, sigma):
        from math import erf, sqrt
        if sigma == 0.0:
            return 0.0, 1.0
        def cdf(x):
            z = (np.log(x) - mu) / sigma
            return 0.5 * (1.0 + erf(z / sqrt(2.0)))
        return cdf(self.spec.min), cdf(self.spec.max)

    def _clipped_mean(self, mu, sigma):
        # Numerical mean of the lognormal restricted to [min, max].
        if sigma <= 0:
            return float(np.exp(mu))
        pdf = np.exp(-0.5 * ((self._z - mu) / sigma) ** 2)
        weight = pdf.sum()
        if weight == 0:
            return float(np.exp(mu))
        return float((self._exp_z * pdf).sum() / weight)

    def _clipped_median(self, mu, sigma):
        from scipy.special import erfinv
        if sigma <= 0:
            return float(np.exp(mu))
        q_low, q_high = self._quantile_band(mu, sigma)
        mid = 0.5 * (q_low + q_high)
        z = np.sqrt(2.0) * erfinv(2.0 * mid - 1.0)
        return float(np.exp(mu + sigma * z))

    def _sigma_for_mean(self, mu):
        target = self.spec.mean
        lo, hi = 1e-4, 3.0
        mean_lo = self._clipped_mean(mu, lo)
        mean_hi = self._clipped_mean(mu, hi)
        if (mean_lo - target) * (mean_hi - target) > 0:
            return lo if abs(mean_lo - target) < abs(mean_hi - target) else hi
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if (self._clipped_mean(mu, mid) - target) * (mean_lo - target) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _calibrate(self):
        mu = np.log(self.spec.median)
        sigma = 0.3
        for _ in range(25):
            sigma = self._sigma_for_mean(mu)
            median = self._clipped_median(mu, sigma)
            mu += np.log(self.spec.median) - np.log(median)
        self._mu, self._sigma = mu, sigma

    def sample(self, rng, size=None):
        """Draw latencies. ``rng`` is a numpy Generator."""
        if self._sigma == 0.0:
            if size is None:
                # float(): an int-valued spec equals its float twin, so
                # both share one memoized sampler (see fit_latency_sampler).
                return float(self.spec.median)
            return np.full(size, float(self.spec.median))
        u = rng.uniform(self._q_low, self._q_high, size=size)
        # Inverse CDF of the lognormal at quantile u.
        from scipy.special import erfinv  # scipy is available offline
        z = np.sqrt(2.0) * erfinv(2.0 * u - 1.0)
        return np.exp(self._mu + self._sigma * z)

    def mean(self):
        """Mean of the clipped distribution (matches the spec's mean)."""
        return self._clipped_mean(self._mu, self._sigma)

    def median(self):
        """Median of the clipped distribution (matches the spec's)."""
        return self._clipped_median(self._mu, self._sigma)


class SplitPowerLatency:
    """Two power-law halves around the median — the default fit.

    Half the mass lies below the median, half above (so the median is
    matched *exactly*), each half spanning exactly [min, median] /
    [median, max] (so the observed extremes are reachable), with
    power-law shapes ``x = median ± span * u^k`` whose exponents set
    how much mass hugs the median.  The upper exponent is solved in
    closed form so the mean matches the spec; this family fits every
    Table 1 operation, including the left-skewed spot-start latencies
    (mean < median) and the heavy-tailed ENI operations (mean well
    above the median), which defeat any single lognormal.
    """

    #: Lower-half exponent: mild concentration toward the median.
    LOWER_EXPONENT = 2.0

    def __init__(self, spec):
        self.spec = spec
        low_span = spec.median - spec.min
        high_span = spec.max - spec.median
        self._j = self.LOWER_EXPONENT
        if high_span <= 0:
            self._k = 1.0
        else:
            # mean = median + (high_span/(k+1) - low_span/(j+1)) / 2
            pull = spec.mean - spec.median + \
                0.5 * low_span / (self._j + 1.0)
            if pull <= 0:
                # Mean at/below the reachable floor: concentrate the
                # upper half fully at the median.
                self._k = 200.0
            else:
                self._k = max(0.5 * high_span / pull - 1.0, 0.05)

    def sample(self, rng, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        upper = rng.random(n) < 0.5
        u = rng.random(n)
        spec = self.spec
        draws = np.where(
            upper,
            spec.median + (spec.max - spec.median) * u ** self._k,
            spec.median - (spec.median - spec.min) * u ** self._j)
        if scalar:
            return float(draws[0])
        return draws.reshape(size)

    def mean(self):
        spec = self.spec
        high = (spec.max - spec.median) / (self._k + 1.0)
        low = (spec.median - spec.min) / (self._j + 1.0)
        return spec.median + 0.5 * (high - low)

    def median(self):
        return float(self.spec.median)


@functools.lru_cache(maxsize=256)
def fit_latency_sampler(spec):
    """Pick the sampler for one operation's statistics.

    A clipped lognormal when it can honour both the median and the
    mean; the split-power family otherwise (degenerate sigma, or a
    spread/skew a conditioned lognormal cannot reach).

    Memoized per process: the fit is a pure function of the frozen
    ``spec``, and samplers keep no draw state (``sample`` takes the
    caller's ``rng``), so every :class:`OperationLatencyModel` shares
    one fitted sampler per spec.
    """
    if spec.max == spec.min:
        return ClippedLognormal(spec)
    sampler = ClippedLognormal(spec)
    median_ok = abs(sampler.median() - spec.median) <= 0.03 * spec.median
    mean_ok = abs(sampler.mean() - spec.mean) <= 0.03 * spec.mean
    # A near-zero sigma collapses the distribution to a point even when
    # the two statistics "match" — the observed min/max become
    # unreachable, so fall back to the split-power family.
    degenerate = sampler._sigma < 0.05 and spec.max > 1.05 * spec.min
    if median_ok and mean_ok and not degenerate:
        return sampler
    return SplitPowerLatency(spec)


class OperationLatencyModel:
    """Samples a latency for each cloud control-plane operation.

    Parameters
    ----------
    rng:
        numpy Generator used for all draws.
    specs:
        Mapping of operation name -> :class:`LatencySpec`; defaults to
        the paper's Table 1.
    scale:
        Global multiplier on all latencies (1.0 reproduces Table 1;
        useful for what-if studies — the paper notes EC2 "could likely
        significantly reduce the latency of these operations").
    op_scales:
        Optional per-operation multipliers layered on top of ``scale``
        (e.g. ``{"detach_volume": 3.0}`` models a platform whose
        detach path is persistently slow, the stall family the fault
        injector's latency tails inject transiently).
    """

    def __init__(self, rng, specs=None, scale=1.0, op_scales=None):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.rng = rng
        self.scale = scale
        self.op_scales = dict(op_scales or {})
        for name, factor in self.op_scales.items():
            if factor <= 0:
                raise ValueError(
                    f"op_scales[{name!r}] must be positive, got {factor}")
        self.specs = dict(specs if specs is not None else TABLE1_SPECS)
        self._samplers = {
            name: fit_latency_sampler(spec)
            for name, spec in self.specs.items()
        }

    def _scale_for(self, operation):
        return self.scale * self.op_scales.get(operation, 1.0)

    def operations(self):
        """Names of all modelled operations."""
        return list(self.specs)

    def sample(self, operation, size=None):
        """Draw one (or ``size``) latencies for ``operation``, seconds."""
        try:
            sampler = self._samplers[operation]
        except KeyError:
            raise KeyError(f"unknown operation {operation!r}") from None
        return sampler.sample(self.rng, size=size) * self._scale_for(operation)

    def mean(self, operation):
        """Calibrated mean latency of ``operation``, seconds."""
        return self._samplers[operation].mean() * self._scale_for(operation)

    def migration_downtime_mean(self):
        """Mean EC2-operation downtime per migration (paper: ~22.65 s)."""
        return sum(self.mean(op) for op in EC2_MIGRATION_DOWNTIME_OPS)

    def sample_migration_downtime(self):
        """Draw one migration's EC2-operation downtime, seconds."""
        return float(sum(self.sample(op) for op in EC2_MIGRATION_DOWNTIME_OPS))

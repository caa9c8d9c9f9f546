"""Host-speed probe: scale measured seconds to a reference CPU speed.

On a shared host the same CPU-bound sample takes anywhere from 1x to
2x as long, in phases lasting from seconds to minutes (measured on a
2-vCPU 2.1 GHz Xeon VM: a fixed pure-Python loop drifted 1.36x between
one-minute windows).  No run length a benchmark can afford averages
that out.  The probe measures it instead: every ``PERIOD_S`` a timer
signal runs a fixed, allocation-free loop in the sampled process and
times it.  The probe's mean duration tracks the host's current speed,
so ``seconds * REFERENCE_S / mean`` is the time the same work takes at
the reference speed.  On the host above, 13 back-to-back samples of one
``chaos-sla`` input spread 41% raw and 7% scaled (interquartile range
over median).  The probe sees slow clock phases well but catches few
short host preemptions, so some drift remains.

The loop allocates nothing (it iterates a prebuilt tuple and keeps its
integers in the small-int cache), so it never triggers the garbage
collector inside the timed region, and it touches no simulator state,
so simulated outputs are unchanged.
"""

import signal
import time

#: Seconds between probes; one probe costs about 0.5% of a period.
PERIOD_S = 0.025
#: Mean probe duration at the reference speed (the fastest phase seen
#: on the host above).  Only ratios between runs matter.
REFERENCE_S = 1.0e-4

_ITEMS = (None,) * 2000


def probe_loop():
    x = 0
    for _ in _ITEMS:
        x = (x + 3) & 127
    return x


class SpeedProbe:
    """Times ``probe_loop`` on a SIGALRM interval timer."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        self._previous = None

    def _tick(self, _signum, _frame):
        begin = time.perf_counter()
        probe_loop()
        self.total_s += time.perf_counter() - begin
        self.count += 1

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self):
        """Factor turning this run's host seconds into reference seconds."""
        if self.count == 0:
            return 1.0
        return REFERENCE_S / (self.total_s / self.count)

"""VM memory and dirty-page behaviour.

The model every migration mechanism consumes is *unique pages dirtied
over an interval*.  Writes concentrate on a hot working set: over an
interval ``t`` at write rate ``r`` pages/s, the number of unique hot
pages touched saturates toward the working-set size ``W`` as
``W * (1 - exp(-r*t/W))`` (the classic coupon-collector saturation),
while a small fraction of writes lands uniformly in the cold remainder
of memory.  This produces the two regimes that matter to the paper:

* short checkpoint intervals see dirty volume ~ ``r * t`` (linear), so
  a tighter time bound directly shrinks the residual state;
* long intervals saturate near the working set, which is why live
  pre-copy converges at all.
"""

import functools
import math
from dataclasses import dataclass

#: Bytes per page (x86 small pages).
PAGE_SIZE = 4096


class DirtyBudgetInfeasible(ValueError):
    """No checkpoint interval keeps the dirty volume within the budget.

    Raised when even the shortest meaningful interval (1 ms) dirties
    more than the budget: the VM writes faster than the commit path can
    absorb, so no checkpoint frequency can honour the time bound and
    the caller must treat the VM's state as at risk.
    """


@dataclass(frozen=True)
class MemoryModel:
    """Memory footprint and dirtying behaviour of one VM.

    Attributes
    ----------
    total_bytes:
        Guest-visible RAM size.
    write_rate_pages:
        Page writes per second while the workload runs.
    working_set_fraction:
        Fraction of RAM forming the write-hot working set.
    cold_write_fraction:
        Fraction of writes landing uniformly outside the hot set.
    """

    total_bytes: int
    write_rate_pages: float
    working_set_fraction: float = 0.2
    cold_write_fraction: float = 0.02

    def __post_init__(self):
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if self.write_rate_pages < 0:
            raise ValueError("write_rate_pages must be non-negative")
        if not 0 < self.working_set_fraction <= 1:
            raise ValueError("working_set_fraction must lie in (0, 1]")
        if not 0 <= self.cold_write_fraction < 1:
            raise ValueError("cold_write_fraction must lie in [0, 1)")

    @property
    def total_pages(self):
        return max(self.total_bytes // PAGE_SIZE, 1)

    @property
    def working_set_pages(self):
        return max(int(self.total_pages * self.working_set_fraction), 1)

    def unique_pages_dirtied(self, interval_s):
        """Unique pages dirtied over ``interval_s`` seconds.

        Hot writes saturate toward the working set; cold writes add a
        slowly growing uniform component capped at the cold region size.
        """
        if interval_s <= 0 or self.write_rate_pages == 0:
            return 0.0
        hot_writes = self.write_rate_pages * (1 - self.cold_write_fraction)
        hot_set = float(self.working_set_pages)
        hot = hot_set * (1.0 - math.exp(-hot_writes * interval_s / hot_set))
        cold_region = float(self.total_pages - self.working_set_pages)
        cold_writes = self.write_rate_pages * self.cold_write_fraction
        if cold_region <= 0 or cold_writes == 0:
            cold = 0.0
        else:
            cold = cold_region * (
                1.0 - math.exp(-cold_writes * interval_s / cold_region))
        return min(hot + cold, float(self.total_pages))

    def dirty_bytes(self, interval_s):
        """Unique bytes dirtied over ``interval_s`` seconds."""
        return self.unique_pages_dirtied(interval_s) * PAGE_SIZE

    def interval_for_dirty_bytes(self, budget_bytes):
        """Longest interval whose dirty volume stays within the budget.

        This is the checkpoint-interval computation at the heart of
        bounded-time migration: the interval is chosen "such that any
        outstanding dirty pages can be safely committed upon a
        revocation within the time bound".  Solved by bisection on the
        monotone :meth:`dirty_bytes`.

        Raises :class:`DirtyBudgetInfeasible` when even a 1 ms interval
        overflows the budget — there is no interval to return, and a
        silent floor would let planners pretend the time bound holds.
        Returns ``inf`` when dirtying saturates below the budget (any
        interval fits, so checkpoints are only needed for liveness).

        Memoized per ``(model, budget)`` pair: both are frozen, so each
        process solves a pair once.  An infeasible budget raises on
        every call, because ``lru_cache`` never stores an exception.
        """
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        return _bisect_interval(self, budget_bytes)

    def scaled(self, write_rate_factor):
        """The same memory with the write rate scaled by ``factor``."""
        return MemoryModel(
            total_bytes=self.total_bytes,
            write_rate_pages=self.write_rate_pages * write_rate_factor,
            working_set_fraction=self.working_set_fraction,
            cold_write_fraction=self.cold_write_fraction,
        )


@functools.lru_cache(maxsize=4096)
def _bisect_interval(memory, budget_bytes):
    """The uncached solve behind :meth:`MemoryModel.interval_for_dirty_bytes`.

    A closed-form Newton step would be cheaper on a miss but changes the
    interval's last bits, and with them every checkpoint time; the
    bisection keeps results bit-identical, and the memo makes it rare.
    """
    if memory.write_rate_pages == 0:
        return float("inf")
    if memory.dirty_bytes(1e-3) > budget_bytes:
        raise DirtyBudgetInfeasible(
            f"{memory.dirty_bytes(1e-3):.0f} dirty bytes in 1 ms "
            f"exceed the {budget_bytes:.0f}-byte commit budget")
    lo, hi = 1e-3, 1.0
    while memory.dirty_bytes(hi) < budget_bytes and hi < 1e7:
        hi *= 2.0
    if hi >= 1e7:
        return float("inf")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if memory.dirty_bytes(mid) < budget_bytes:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

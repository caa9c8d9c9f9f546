"""Fleet workload mixes: heterogeneous checkpoint plans by design.

SpotCheck's fleet-scale benchmarks drive *homogeneous* cells — every
nested VM dirties memory identically, so the whole fleet shares one
checkpoint plan and one cohort.  Real derivative-cloud tenants are not
like that: Spot-on-style long-running jobs bring application-specific
checkpoint cadences, i.e. many distinct plans per (pool, mechanism).

A :class:`FleetMix` describes such a population as a list of
:class:`MixClass` entries — each a *write-rate factor* applied to the
fleet cell's synthetic base profile plus a relative weight.  The mix
is pure data (a frozen dataclass of tuples), picklable across shard
processes, and deterministic: :meth:`FleetMix.counts` apportions a
fleet size by largest remainder and :meth:`FleetMix.workload_factory`
hands out workloads in class blocks, so every market builds the same
population no matter which process hosts it.

:func:`default_fleet_mix` spreads factors geometrically (ratio 1/3)
so the summed checkpoint-round rate of all classes stays under ~1.5x
the base class alone — that is what lets the heterogeneity gate
(``tests/core/test_fleet_scale.py``) demand the mixed cell stay
within 2x the homogeneous cell's kernel events.
"""

from dataclasses import dataclass

from repro.workloads.base import Workload

__all__ = [
    "FLEET_BASE_WRITE_RATE_PAGES",
    "FleetMix",
    "MixClass",
    "WriteScaledWorkload",
    "default_fleet_mix",
]

#: Write rate of the fleet cell's base class, matching the default
#: :class:`~repro.virt.vm.NestedVM` memory model — so a single-class
#: mix reproduces the homogeneous fleet cell exactly.
FLEET_BASE_WRITE_RATE_PAGES = 2000.0


class WriteScaledWorkload(Workload):
    """A workload class distinguished only by its write rate.

    Scales a base dirtying profile by ``factor``; performance queries
    fall back to flat (no degradation), since the fleet cells measure
    scheduling cost, not SLA response.  Distinct factors produce
    distinct :class:`~repro.virt.memory.MemoryModel` instances and so
    distinct checkpoint plans — which is the entire point.
    """

    working_set_fraction = 0.2
    cold_write_fraction = 0.02

    def __init__(self, factor=1.0,
                 base_write_rate_pages=FLEET_BASE_WRITE_RATE_PAGES):
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.factor = factor
        self.write_rate_pages = base_write_rate_pages * factor
        self.name = f"fleet-x{factor:g}"

    def performance(self, conditions):
        return 1.0

    def degradation_fraction(self, conditions):
        return 0.0


@dataclass(frozen=True)
class MixClass:
    """One workload class of a fleet mix."""

    factor: float
    weight: float = 1.0

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("mix class factor must be positive")
        if self.weight <= 0:
            raise ValueError("mix class weight must be positive")


@dataclass(frozen=True)
class FleetMix:
    """A deterministic population of write-scaled workload classes."""

    classes: tuple

    def __post_init__(self):
        if not self.classes:
            raise ValueError("a fleet mix needs at least one class")
        for entry in self.classes:
            if not isinstance(entry, MixClass):
                raise TypeError(
                    f"mix classes must be MixClass, got {entry!r}")

    def __len__(self):
        return len(self.classes)

    def counts(self, total):
        """Apportion ``total`` VMs over the classes (largest remainder).

        Every class with positive weight receives at least its floor
        share; leftover VMs go to the largest fractional remainders in
        class order — pure arithmetic, identical in every process.
        """
        if total < 0:
            raise ValueError("total must be non-negative")
        weight_sum = sum(entry.weight for entry in self.classes)
        shares = [total * entry.weight / weight_sum
                  for entry in self.classes]
        counts = [int(share) for share in shares]
        leftover = total - sum(counts)
        remainders = sorted(
            range(len(shares)),
            key=lambda index: (-(shares[index] - counts[index]), index))
        for index in remainders[:leftover]:
            counts[index] += 1
        return counts

    def workload_factory(self, total):
        """A per-VM workload factory handing out classes in blocks.

        The first ``counts[0]`` calls produce class 0, the next block
        class 1, and so on; calls past ``total`` repeat the last class
        (defensive — provisioning never overruns its request).  Each
        class is one shared :class:`WriteScaledWorkload`, handed to
        every VM of the class: workloads are immutable, and
        :meth:`SpotCheckController.provision_fleet
        <repro.core.controller.SpotCheckController.provision_fleet>`
        keys its per-class boot cache by the workload object.
        """
        counts = self.counts(total)
        schedule = []
        for entry, count in zip(self.classes, counts):
            schedule.extend([WriteScaledWorkload(entry.factor)] * count)
        state = {"next": 0}

        def factory():
            index = min(state["next"], len(schedule) - 1)
            state["next"] += 1
            return schedule[index]

        return factory


def default_fleet_mix(classes=8, ratio=1.0 / 3.0):
    """The bench's heterogeneous population: geometric write factors.

    Class k runs at ``ratio**k`` times the base write rate, equal
    weights.  Checkpoint rounds scale roughly linearly in the write
    factor, so the summed round rate over all classes is about
    ``1 / (1 - ratio)`` times the base class alone — 1.5x at the
    default ratio, comfortably inside the 2x heterogeneity ratchet.
    """
    if classes < 1:
        raise ValueError("need at least one class")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    return FleetMix(classes=tuple(
        MixClass(factor=ratio ** k) for k in range(classes)))

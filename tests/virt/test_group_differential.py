"""Differential test: the group scheduler against the per-VM oracle.

Hypothesis draws small fleets (1-40 VMs over 1-3 workload classes,
the write-scaled classes of ``default_fleet_mix`` included) with
staggered joins, optional leaves and a settle horizon, and runs each
fleet twice: once through :class:`GroupCheckpointScheduler`, once as
one :meth:`CheckpointStream.run` process per VM.  On an uncontended
datapath (capacity at least the sum of the stream caps) the aggregate
cohort flow is exact, so every member's settled total must be
bit-equal to its per-VM stream's, and batching may only ever issue
fewer flows.
"""

from hypothesis import given, settings, strategies as st

from repro.cloud.instance_types import M3_CATALOG
from repro.sim.kernel import Environment
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.virt.network import FairShareLink
from repro.virt.vm import NestedVM
from repro.workloads import SpecJbbWorkload, TpcwWorkload
from repro.workloads.mix import WriteScaledWorkload, default_fleet_mix

MEDIUM = M3_CATALOG.get("m3.medium")
CONFIG = CheckpointConfig()

#: Workload class factories: the two paper workloads plus every
#: write-scaled class of the default fleet mix.
CLASSES = [TpcwWorkload, SpecJbbWorkload] + [
    (lambda factor=entry.factor: WriteScaledWorkload(factor))
    for entry in default_fleet_mix().classes]


class _CountingLink:
    """Uncontended link that counts the flows it carries."""

    def __init__(self, env, capacity_bps):
        self.link = FairShareLink(env, capacity_bps)
        self.flows = 0

    def transfer(self, size_bytes, rate_cap=None):
        self.flows += 1
        return self.link.transfer(size_bytes, rate_cap=rate_cap)


@st.composite
def fleets(draw):
    classes = draw(st.lists(st.sampled_from(range(len(CLASSES))),
                            min_size=1, max_size=3, unique=True))
    horizon = draw(st.floats(min_value=60.0, max_value=1800.0))
    # Few distinct join instants, so same-instant members share cohorts.
    instants = draw(st.lists(st.floats(min_value=0.0,
                                       max_value=horizon / 2),
                             min_size=1, max_size=3))
    n_vms = draw(st.integers(min_value=1, max_value=40))
    vms = []
    for _ in range(n_vms):
        joined = draw(st.sampled_from(instants))
        leave = draw(st.one_of(
            st.none(), st.floats(min_value=joined + 1.0,
                                 max_value=horizon)))
        vms.append((draw(st.sampled_from(classes)), joined, leave))
    drain = draw(st.booleans())
    return vms, horizon, drain


def _streams(env, vms):
    return [CheckpointStream(NestedVM(env, MEDIUM,
                                      workload=CLASSES[cls]()).memory,
                             CONFIG)
            for cls, _joined, _leave in vms]


def _capacity(vms):
    return 2.0 * len(vms) * CONFIG.stream_bandwidth_bps


def _actions(vms):
    """(time, kind, index) in time order; joins before leaves."""
    actions = [(joined, 0, index) for index, (_, joined, _) in enumerate(vms)]
    actions += [(leave, 1, index) for index, (_, _, leave) in enumerate(vms)
                if leave is not None]
    return sorted(actions)


def run_per_vm(vms, horizon, drain):
    env = Environment(seed=1)
    link = _CountingLink(env, _capacity(vms))
    streams = _streams(env, vms)
    stops = [env.event() for _ in vms]
    flushed = [0.0] * len(vms)
    runs = []

    def _account(index):
        def on_flush(nbytes):
            flushed[index] += nbytes
        return on_flush

    for when, kind, index in _actions(vms):
        env.run(until=when)
        if kind == 0:
            runs.append(streams[index].run(env, link, stops[index],
                                           on_flush=_account(index)))
        else:
            stops[index].succeed()
    env.run(until=horizon)
    for stop in stops:
        if not stop.triggered:
            stop.succeed()
    if drain:
        env.run(until=env.all_of(runs))
    return flushed, link.flows


def run_grouped(vms, horizon, drain):
    env = Environment(seed=1)
    link = _CountingLink(env, _capacity(vms))
    streams = _streams(env, vms)
    sched = GroupCheckpointScheduler(env, link)
    for when, kind, index in _actions(vms):
        env.run(until=when)
        if kind == 0:
            sched.join(index, streams[index])
        else:
            sched.leave(index)
    env.run(until=horizon)
    if drain:
        env.run(until=env.process(sched.settle()))
    else:
        sched.settle_now()
    flushed = [sched.flushed[index] for index in range(len(vms))]
    return flushed, sched.flows_issued


class TestGroupMatchesPerVmOracle:
    @given(fleets())
    @settings(max_examples=25, deadline=None)
    def test_settled_totals_bit_equal_to_per_vm_streams(self, fleet):
        vms, horizon, drain = fleet
        per_vm, per_vm_flows = run_per_vm(vms, horizon, drain)
        grouped, grouped_flows = run_grouped(vms, horizon, drain)
        assert grouped == per_vm
        assert grouped_flows <= per_vm_flows

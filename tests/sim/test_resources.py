"""Tests for Resource, Container, and the fair-share bandwidth resource."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.server import BackupServer
from repro.sim import (Container, Environment, FairShareResource, Resource,
                       fair_share_rates)
from repro.sim.resources import _FairFlow


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        r1, r2, r3 = (resource.request() for _ in range(3))
        assert r1.triggered and r2.triggered
        assert not r3.triggered
        assert resource.count == 2

    def test_release_wakes_waiter(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        assert not second.triggered
        resource.release(first)
        assert second.triggered

    def test_fifo_ordering(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        queue = [resource.request() for _ in range(3)]
        resource.release(first)
        assert queue[0].triggered
        assert not queue[1].triggered

    def test_cancel_queued_request(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        waiting = resource.request()
        resource.release(waiting)  # withdraw from queue
        assert resource.count == 1
        resource.release(held)
        assert resource.count == 0

    def test_context_manager_releases(self, env):
        resource = Resource(env, capacity=1)
        def proc():
            with resource.request() as req:
                yield req
                assert resource.count == 1
            return resource.count
        assert env.run(until=env.process(proc())) == 0

    def test_mutual_exclusion_in_processes(self, env):
        resource = Resource(env, capacity=1)
        log = []
        def worker(name):
            request = resource.request()
            yield request
            log.append((name, "in", env.now))
            yield env.timeout(5.0)
            log.append((name, "out", env.now))
            resource.release(request)
        env.process(worker("a"))
        env.process(worker("b"))
        env.run()
        assert log == [("a", "in", 0.0), ("a", "out", 5.0),
                       ("b", "in", 5.0), ("b", "out", 10.0)]


class TestContainer:
    def test_initial_level(self, env):
        assert Container(env, capacity=10, init=4).level == 4

    def test_invalid_init_rejected(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=5, init=9)

    def test_put_and_get(self, env):
        container = Container(env, capacity=100)
        container.put(30)
        assert container.level == 30
        got = container.get(20)
        assert got.triggered
        assert container.level == 10

    def test_get_blocks_until_available(self, env):
        container = Container(env, capacity=100)
        pending = container.get(50)
        assert not pending.triggered
        container.put(50)
        assert pending.triggered
        assert container.level == 0

    def test_put_blocks_at_capacity(self, env):
        container = Container(env, capacity=10, init=8)
        blocked = container.put(5)
        assert not blocked.triggered
        container.get(5)
        assert blocked.triggered

    def test_zero_amount_rejected(self, env):
        container = Container(env)
        with pytest.raises(ValueError):
            container.put(0)
        with pytest.raises(ValueError):
            container.get(-1)


class TestFairShareRates:
    def test_under_demand_granted_exactly(self):
        assert fair_share_rates([10.0, 20.0], 100.0) == [10.0, 20.0]

    def test_over_demand_water_level(self):
        assert fair_share_rates([60.0, 60.0], 100.0) == [50.0, 50.0]

    def test_small_demand_frees_share_for_big(self):
        # Max-min: the 10 gets its demand, the rest split the remainder.
        assert fair_share_rates([10.0, 100.0, 100.0], 100.0) == \
            [10.0, 45.0, 45.0]

    def test_empty(self):
        assert fair_share_rates([], 50.0) == []

    def test_never_exceeds_capacity(self):
        grants = fair_share_rates([30.0, 70.0, 90.0], 120.0)
        assert sum(grants) <= 120.0 + 1e-9
        assert all(g <= d for g, d in zip(grants, [30.0, 70.0, 90.0]))


class TestFairShareResource:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            FairShareResource(env, {})
        with pytest.raises(ValueError):
            FairShareResource(env, {"link": 0.0})
        resource = FairShareResource(env, {"link": 100.0})
        with pytest.raises(ValueError):
            resource.transfer(0)
        with pytest.raises(ValueError):
            resource.transfer(10.0, rate_cap=0.0)
        with pytest.raises(ValueError):
            resource.transfer(10.0, paths=("ghost",))
        with pytest.raises(ValueError):
            resource.transfer(10.0, paths=())

    def test_single_flow_runs_at_capacity(self, env):
        resource = FairShareResource(env, {"link": 100.0})
        done = resource.transfer(1000.0)
        env.run(until=done)
        assert env.now == pytest.approx(10.0)
        assert done.value == pytest.approx(10.0)
        assert resource.flow_count() == 0

    def test_equal_flows_split_evenly(self, env):
        resource = FairShareResource(env, {"link": 100.0})
        first = resource.transfer(500.0)
        second = resource.transfer(500.0)
        assert [f.rate for f in resource.flows] == [50.0, 50.0]
        env.run(until=env.all_of([first, second]))
        assert env.now == pytest.approx(10.0)

    def test_early_finisher_releases_bandwidth(self, env):
        # 100 + 300 bytes on a 100 B/s link: equal shares until the
        # small flow drains at t=2, then the big one runs alone and the
        # link stays work-conserving (last byte at total/capacity = 4).
        resource = FairShareResource(env, {"link": 100.0})
        small = resource.transfer(100.0)
        big = resource.transfer(300.0)
        env.run(until=small)
        assert env.now == pytest.approx(2.0)
        env.run(until=big)
        assert env.now == pytest.approx(4.0)

    def test_late_arrival_rebalances_mid_flow(self, env):
        resource = FairShareResource(env, {"link": 100.0})
        first = resource.transfer(400.0)

        def later():
            yield env.timeout(1.0)
            elapsed = yield resource.transfer(100.0)
            return elapsed

        second = env.process(later())
        # First runs alone for 1 s (100 done), shares for 2 s (100 each),
        # then finishes its last 200 alone: 1 + 2 + 2 = 5 = 500/100.
        env.run(until=second)
        assert env.now == pytest.approx(3.0)
        assert second.value == pytest.approx(2.0)
        env.run(until=first)
        assert env.now == pytest.approx(5.0)

    def test_rate_cap_frees_share_for_others(self, env):
        resource = FairShareResource(env, {"link": 100.0})
        capped = resource.transfer(100.0, rate_cap=20.0)
        greedy = resource.transfer(800.0)
        assert [f.rate for f in resource.flows] == [20.0, 80.0]
        env.run(until=capped)
        assert env.now == pytest.approx(5.0)
        env.run(until=greedy)
        assert env.now == pytest.approx(9.0)  # 900 bytes / 100 B/s

    def test_multi_path_progressive_filling(self, env):
        # Two disk+nic flows bottleneck on the disk; the nic-only flow
        # soaks up what the nic has left over.
        resource = FairShareResource(env, {"disk": 90.0, "nic": 300.0})
        resource.transfer(90.0, paths=("disk", "nic"))
        resource.transfer(90.0, paths=("disk", "nic"))
        resource.transfer(420.0, paths=("nic",))
        assert [f.rate for f in resource.flows] == [45.0, 45.0, 210.0]
        for stats in resource.snapshot().values():
            assert stats["rate_sum"] <= stats["capacity"] + 1e-9

    def test_shared_path_caps_both_kinds(self, env):
        # A nic tighter than the disk binds disk flows too.
        resource = FairShareResource(env, {"disk": 90.0, "nic": 60.0})
        resource.transfer(100.0, paths=("disk", "nic"))
        resource.transfer(100.0, paths=("disk", "nic"))
        assert [f.rate for f in resource.flows] == [30.0, 30.0]

    def test_callable_capacity_sees_member_flows(self, env):
        # Aggregate throughput that collapses with concurrency, like
        # untuned random reads.
        def collapsing(members):
            return 100.0 / len(members)

        resource = FairShareResource(env, {"disk": collapsing})
        resource.transfer(1000.0)
        resource.transfer(1000.0)
        assert [f.rate for f in resource.flows] == [25.0, 25.0]
        assert resource.utilization("disk") == pytest.approx(1.0)

    def test_flow_count_by_kind(self, env):
        resource = FairShareResource(env, {"link": 100.0})
        resource.transfer(50.0, kind="commit")
        resource.transfer(50.0, kind="restore")
        resource.transfer(50.0, kind="restore")
        assert resource.flow_count() == 3
        assert resource.flow_count(kind="restore") == 2
        assert resource.flow_count(kind="commit") == 1

    def test_rebalance_callback_and_counter(self, env):
        seen = []
        resource = FairShareResource(
            env, {"link": 100.0},
            on_rebalance=lambda r: seen.append(r.rebalances))
        done = resource.transfer(100.0)
        resource.transfer(200.0)
        env.run(until=done)
        # One rebalance per arrival plus one when the first flow drains.
        assert resource.rebalances >= 3
        assert seen == list(range(1, resource.rebalances + 1))

    def test_invariant_holds_at_every_rebalance(self, env):
        resource = FairShareResource(env, {"a": 70.0, "b": 100.0})

        def check(res):
            for stats in res.snapshot().values():
                assert stats["rate_sum"] <= stats["capacity"] + 1e-9

        resource.on_rebalance = check
        resource.transfer(100.0, paths=("a", "b"))
        resource.transfer(300.0, paths=("b",))

        def later():
            yield env.timeout(0.5)
            yield resource.transfer(40.0, paths=("a",))

        env.process(later())
        env.run()
        assert resource.flow_count() == 0

    def test_transfer_value_is_elapsed_time(self, env):
        resource = FairShareResource(env, {"link": 10.0})

        def start_later():
            yield env.timeout(7.0)
            elapsed = yield resource.transfer(30.0)
            return elapsed

        proc = env.process(start_later())
        env.run(until=proc)
        assert proc.value == pytest.approx(3.0)
        assert env.now == pytest.approx(10.0)


def _bits(rates):
    """Rates as (type, IEEE-754 bytes): equal only if bit-identical."""
    return [(type(rate), struct.pack("<d", rate)) for rate in rates]


def _near(level):
    """Rate caps just below, at and just above one capacity level."""
    return st.sampled_from((
        level / 2, math.nextafter(level, 0.0), level,
        math.nextafter(level, math.inf), level * 2))


PATH_NAMES = ("disk", "nic", "wan")
KINDS = ("commit", "restore:full:opt", "restore:lazy:unopt", "skeleton")


@st.composite
def lone_flow_cases(draw):
    """A datapath of 1-3 paths and one flow on some of them.

    Each path is a constant capacity, a callable that answers commit
    and restore flows differently, or a callable at zero capacity.
    The rate cap is absent or sits below, at or above one of the
    levels the paths can report.
    """
    count = draw(st.integers(1, 3))
    names = PATH_NAMES[:count]
    capacities = {}
    levels = []
    for name in names:
        write = draw(st.floats(1.0, 1e10))
        style = draw(st.sampled_from(("constant", "by-kind", "zero")))
        if style == "constant":
            capacities[name] = write
            levels.append(write)
        elif style == "by-kind":
            read = draw(st.floats(1.0, 1e10))
            capacities[name] = (
                lambda flows, write=write, read=read:
                read if flows[0].kind.startswith("restore:") else write)
            levels.extend((write, read))
        else:
            capacities[name] = lambda flows: 0.0
    order = draw(st.permutations(names))
    paths = tuple(order[:draw(st.integers(1, count))])
    kind = draw(st.sampled_from(KINDS))
    levels.append(1.0)
    rate_cap = draw(st.none() | st.sampled_from(levels).flatmap(_near))
    return capacities, paths, rate_cap, kind


class TestLoneFlowFastPath:
    """The zero- and one-flow closed forms against progressive filling."""

    @settings(max_examples=300, deadline=None)
    @given(case=lone_flow_cases())
    def test_one_flow_matches_progressive_filling(self, case):
        capacities, paths, rate_cap, kind = case
        env = Environment()
        resource = FairShareResource(env, capacities)
        flows = [_FairFlow(env, 1e6, paths, rate_cap, kind)]
        fast = resource._compute_rates(flows)
        assert _bits(fast) == _bits(resource._progressive_filling(flows))

    def test_zero_flows_match_progressive_filling(self, env):
        resource = FairShareResource(env, {"disk": 90.0, "nic": 60.0})
        assert resource._compute_rates([]) == []
        assert resource._progressive_filling([]) == []

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(("commit", "full", "lazy")),
           optimized=st.booleans(),
           cap=st.none() | st.sampled_from(
               (1e6, 55e6, 109.9e6, 110e6, 125e6, 1e9)).flatmap(_near))
    def test_backup_datapath_flow_matches(self, kind, optimized, cap):
        """The backup server's mix-dependent disk capacity, fed one
        commit or restore flow at a time."""
        env = Environment()
        server = BackupServer(env)
        datapath = server.datapath
        if kind == "commit":
            server.commit_flow(1e6, rate_cap=cap)
        else:
            server.restore_read_flow(1e6, kind, optimized)
            datapath.flows[0].rate_cap = cap
        flows = list(datapath.flows)
        assert _bits(datapath._compute_rates(flows)) == \
            _bits(datapath._progressive_filling(flows))


def _reference_filling(resource, flows):
    """Progressive filling as first written: unfixed flows in a set,
    open counts rescanned every round.  Capped flows are charged in set
    order, so its float rounding may differ from the solver's in the
    last bits; answers are compared to a tolerance."""
    members, remaining = {}, {}
    for path in resource.capacities:
        on_path = [f for f in flows if path in f.paths]
        if on_path:
            members[path] = on_path
            remaining[path] = max(resource._capacity(path, on_path), 0.0)
    rates = {}
    unfixed = set(flows)
    while unfixed:
        levels = {}
        for path, on_path in members.items():
            open_count = sum(1 for f in on_path if f in unfixed)
            if open_count:
                levels[path] = max(remaining[path], 0.0) / open_count
        capped = [f for f in unfixed if f.rate_cap is not None and
                  f.rate_cap < min(levels[p] for p in f.paths)]
        if capped:
            for flow in capped:
                rates[flow] = flow.rate_cap
                for path in flow.paths:
                    remaining[path] -= flow.rate_cap
                unfixed.discard(flow)
            continue
        bottleneck = min(levels, key=levels.get)
        for flow in members[bottleneck]:
            if flow in unfixed:
                rates[flow] = levels[bottleneck]
                for path in flow.paths:
                    remaining[path] -= levels[bottleneck]
                unfixed.discard(flow)
    return [rates[flow] for flow in flows]


@st.composite
def multi_flow_cases(draw):
    """2-6 flows over 1-3 constant or kind-dependent paths."""
    count = draw(st.integers(1, 3))
    names = PATH_NAMES[:count]
    capacities = {}
    for name in names:
        write = draw(st.floats(1.0, 1e9))
        if draw(st.booleans()):
            capacities[name] = write
        else:
            capacities[name] = (
                lambda flows, write=write: write / len(flows)
                if any(f.kind.startswith("restore:") for f in flows)
                else write)
    flows = []
    for _ in range(draw(st.integers(2, 6))):
        order = draw(st.permutations(names))
        paths = tuple(order[:draw(st.integers(1, count))])
        rate_cap = draw(st.none() | st.floats(1.0, 1e9))
        flows.append((paths, rate_cap, draw(st.sampled_from(KINDS))))
    return capacities, flows


class TestProgressiveFilling:
    @settings(max_examples=200, deadline=None)
    @given(case=multi_flow_cases())
    def test_matches_the_reference_solver(self, case):
        capacities, specs = case
        env = Environment()
        resource = FairShareResource(env, capacities)
        flows = [_FairFlow(env, 1e6, paths, cap, kind)
                 for paths, cap, kind in specs]
        rates = resource._progressive_filling(flows)
        expected = _reference_filling(resource, flows)
        scale = max(c if not callable(c) else 1e9
                    for c in capacities.values())
        assert rates == pytest.approx(expected, rel=1e-9, abs=1e-9 * scale)

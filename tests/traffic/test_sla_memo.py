"""The per-mean latency-shape memo of :class:`SlaLedger`.

:class:`UncachedLedger` accounts every batch the way the ledger did
before the memo: a fresh lognormal solve per batch, numpy-scalar P2
samples observed one at a time, and a registry lookup per metric
update.  The memoized ledger must match it bit for bit.
"""

import math
from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.chaos import default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.experiments.sla_chaos import default_traffic_mix
from repro.obs import Observability
from repro.obs.export import render_prometheus
from repro.sim.kernel import Environment
from repro.traffic import SlaLedger, SlaTarget, lognormal_params, sla


class UncachedLedger(SlaLedger):
    """One full lognormal solve per accounted batch."""

    def account_latency(self, t0, t1, requests, mean_ms, degraded=False):
        duration = t1 - t0
        self.total_requests += requests
        self.accounted_s += duration
        if degraded:
            self.degraded_s += duration
        if requests <= 0:
            return
        mu, sigma = lognormal_params(mean_ms, self.latency_cov)
        cdf = 0.5 * (1.0 + sla.erf((self._log_edges - mu)
                                   / (sigma * sla._SQRT2)))
        cdf[0] = 0.0
        cdf[-1] = 1.0
        self._mass += requests * np.diff(cdf)
        z_sla = (math.log(self.target.latency_ms) - mu) \
            / (sigma * sla._SQRT2)
        slow = requests * (1.0 - 0.5 * (1.0 + sla.erf(z_sla)))
        self.slow_requests += slow
        if slow / requests > self.target.budget_fraction:
            self.violation_s += duration
        self._note_bad(requests, slow)
        if self.obs is not None and self._sample_z is not None:
            histogram = self.obs.metrics.histogram("sla_latency_ms",
                                                   customer=self.name)
            for z in self._sample_z:
                histogram.observe(math.exp(mu + sigma * z))

    def _note_bad(self, requests, bad):
        self.window_requests += requests
        self.window_bad += bad
        obs = self.obs
        if obs is not None:
            obs.metrics.counter(
                "traffic_requests_total", customer=self.name).inc(requests)
            if bad > 0:
                obs.metrics.counter(
                    "sla_bad_requests_total", customer=self.name).inc(bad)
            obs.metrics.gauge(
                "sla_budget_burn", customer=self.name).set(self.window_burn)
        if not self.window_breached and self.window_budget > 0 and \
                self.window_bad > self.window_budget:
            self.window_breached = True
            self.breaches += 1
            if obs is not None:
                obs.emit("sla.breach", customer=self.name,
                         window=self.window_index,
                         bad=self.window_bad, budget=self.window_budget)
                obs.metrics.counter(
                    "sla_breaches_total", customer=self.name).inc()


#: A handful of means, so most batches hit the memo.
MEANS = (29.0, 60.0, 33.35, 87.0, 250.0)

ops = st.lists(st.one_of(
    st.tuples(st.just("latency"), st.floats(0.0, 1e6),
              st.sampled_from(MEANS), st.booleans()),
    st.tuples(st.just("down"), st.floats(0.0, 1e4)),
    st.tuples(st.just("roll"), st.floats(0.0, 1e7)),
), max_size=60)


def drive(ledger, script, expected=1e5):
    t = 0.0
    ledger.begin_window(t, t + 100.0, expected)
    for op in script:
        if op[0] == "latency":
            ledger.account_latency(t, t + 1.0, op[1], mean_ms=op[2],
                                   degraded=op[3])
        elif op[0] == "down":
            ledger.account_down(t, t + 1.0, op[1])
        else:
            ledger.roll_window()
            ledger.begin_window(t, t + 100.0, op[1])
        t += 1.0
    ledger.roll_window()


def assert_bit_equal(memo, plain):
    assert memo._mass.tobytes() == plain._mass.tobytes()
    for name in ("total_requests", "failed_requests", "slow_requests",
                 "accounted_s", "down_s", "degraded_s", "violation_s",
                 "window_bad", "breaches"):
        a, b = getattr(memo, name), getattr(plain, name)
        assert type(a) is type(b), name
        assert repr(a) == repr(b), name
    assert repr(memo.windows) == repr(plain.windows)
    assert repr(memo.snapshot()) == repr(plain.snapshot())


def observed(ledger_cls, target):
    obs = Observability()
    Environment(seed=1, obs=obs)
    return obs, ledger_cls("web", target, obs=obs)


class TestShapeMemo:
    @settings(max_examples=50, deadline=None)
    @given(script=ops, latency_ms=st.sampled_from([40.0, 100.0]))
    def test_matches_uncached_solve(self, script, latency_ms):
        target = SlaTarget(latency_ms=latency_ms, availability=0.99)
        memo_obs, memo = observed(SlaLedger, target)
        plain_obs, plain = observed(UncachedLedger, target)
        drive(memo, script)
        drive(plain, script)
        assert_bit_equal(memo, plain)
        assert render_prometheus(memo_obs.metrics) == \
            render_prometheus(plain_obs.metrics)
        assert [e.to_dict() for e in memo_obs.events] == \
            [e.to_dict() for e in plain_obs.events]
        used = {op[2] for op in script if op[0] == "latency" and op[1] > 0}
        assert set(memo._shapes) == used

    def test_unobserved_ledger_matches(self):
        script = [("latency", 100.0, m, False) for m in MEANS * 3]
        memo, plain = SlaLedger("c"), UncachedLedger("c")
        drive(memo, script)
        drive(plain, script)
        assert_bit_equal(memo, plain)

    def test_memo_clears_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(sla, "SHAPE_MEMO_CAP", 3)
        script = [("latency", 50.0, 20.0 + i, False) for i in range(10)]
        script += script[:4]
        memo_obs, memo = observed(SlaLedger, SlaTarget())
        plain_obs, plain = observed(UncachedLedger, SlaTarget())
        drive(memo, script)
        drive(plain, script)
        assert len(memo._shapes) <= 3
        assert_bit_equal(memo, plain)
        assert render_prometheus(memo_obs.metrics) == \
            render_prometheus(plain_obs.metrics)

    def test_memoized_mass_is_read_only(self):
        ledger = SlaLedger("c")
        ledger.account_latency(0.0, 1.0, 10.0, mean_ms=29.0)
        mass, _slow, _samples = ledger._shape(29.0)
        assert not mass.flags.writeable

    def test_series_registered_on_first_touch(self):
        obs = Observability()
        ledger = SlaLedger("web", SlaTarget(latency_ms=1e5), obs=obs)
        ledger.account_latency(0.0, 1.0, 10.0, mean_ms=29.0)
        # Nothing slow yet: no bad-request series.
        assert not obs.metrics.find("sla_bad_requests_total")
        ledger.account_down(1.0, 2.0, 3.0)
        bad = obs.metrics.find("sla_bad_requests_total")
        assert len(bad) == 1 and bad[0].value == 3.0


class TestChaosCellSolves:
    def test_one_solve_per_distinct_mean(self, monkeypatch):
        # The observed chaos + traffic cell: each ledger solves the
        # lognormal (one vectorized erf) once per distinct mean.
        solves = [0]
        erf = sla.erf

        def counting_erf(x):
            if isinstance(x, np.ndarray):
                solves[0] += 1
            return erf(x)

        means = defaultdict(set)
        account = SlaLedger.account_latency

        def recording_account(self, t0, t1, requests, mean_ms,
                              degraded=False):
            if requests > 0:
                means[self].add(mean_ms)
            return account(self, t0, t1, requests, mean_ms, degraded)

        monkeypatch.setattr(sla, "erf", counting_erf)
        monkeypatch.setattr(SlaLedger, "account_latency", recording_account)
        config = ScenarioConfig(policy="4P-COST", seed=1, days=7.0, vms=4,
                                faults=default_chaos_plan(),
                                traffic=default_traffic_mix(7.0))
        PolicySimulation(config).run(obs=Observability())
        assert means, "expected SLA traffic in the cell"
        assert solves[0] == sum(len(seen) for seen in means.values())
        for ledger, seen in means.items():
            assert len(ledger._shapes) <= sla.SHAPE_MEMO_CAP
            assert set(ledger._shapes) == seen

"""Ablations for the paper's discussed-but-unevaluated extensions.

* **Predictive migration** (Section 3.2): drain a pool on a price-trend
  signal before the platform issues the warning, turning bounded-time
  migrations into planned live migrations.
* **Zone diversification** (Section 4.2): Figure 6(c) shows zone prices
  are uncorrelated, so spreading one instance type across zones
  dissolves mass revocations just like spreading across types — while
  staying on the cheapest type.
* **Knee bidding** (Section 4.3): bid at the knee of the historical
  availability-bid curve instead of exactly the on-demand price.
"""

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.experiments.policy_grid import run_cell, shared_archive
from repro.experiments.reporting import format_table
from repro.sim.kernel import Environment
from repro.traces.calibration import market_params_for, paper_market_set
from repro.traces.generator import TraceGenerator
from repro.workloads import TpcwWorkload

DAYS = 45.0
VMS = 16
SEED = 31


def test_ablation_predictive_migration(benchmark, report):
    def sweep():
        archive = shared_archive(SEED, DAYS)
        baseline = run_cell("2P-ML", "spotcheck-lazy", seed=SEED, days=DAYS,
                            vms=VMS, archive=archive)
        predictive = run_cell("2P-ML", "spotcheck-lazy", seed=SEED,
                              days=DAYS, vms=VMS, archive=archive,
                              predictive=True)
        return baseline, predictive

    baseline, predictive = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Prediction converts (part of) the reactive bounded migrations
    # into planned live drains, cutting downtime.
    assert predictive["unavailability_pct"] < baseline["unavailability_pct"]
    assert predictive["state_loss_events"] == 0

    rows = [
        ("reactive (bounded-time)",
         f"{baseline['unavailability_pct']:.4f}%",
         baseline["revocation_events"], baseline["migrations"],
         f"${baseline['cost_per_vm_hour']:.4f}"),
        ("predictive (EWMA drain)",
         f"{predictive['unavailability_pct']:.4f}%",
         predictive["revocation_events"], predictive["migrations"],
         f"${predictive['cost_per_vm_hour']:.4f}"),
    ]
    text = format_table(
        ["variant", "unavailability", "revocation events", "migrations",
         "cost/VM-hr"],
        rows,
        title=(f"Ablation — predictive migration (2P-ML, {VMS} VMs, "
               f"{DAYS:.0f} days)"))
    report("ablation_predictive", text)


def _zone_spread_run(zone_count):
    env = Environment(seed=SEED)
    region = default_region(zone_count)
    medium = M3_CATALOG.get("m3.medium")
    # Raise the medium market's volatility so storms actually occur
    # within the bench span, in every zone independently.
    params = {key: market_params_for(medium, volatility_scale=20.0)
              for key in paper_market_set([medium], region.zones,
                                          zone_jitter=0.0)}
    archive = TraceGenerator(seed=SEED).generate_archive(
        params, duration_s=DAYS * 24 * 3600.0)
    policy = "1P-M" if zone_count == 1 else "Z-M"
    controller = SpotCheckController.deploy(
        env, region, archive, SpotCheckConfig(allocation_policy=policy))

    def fleet():
        customer = controller.start_customer("fleet")
        for _ in range(VMS):
            yield controller.request_server(
                customer, workload=TpcwWorkload())

    env.run(until=env.process(fleet()))
    env.run(until=DAYS * 24 * 3600.0)
    controller.finalize()
    return controller.summary(total_vms=VMS)


def test_ablation_zone_spreading(benchmark, report):
    results = benchmark.pedantic(
        lambda: {n: _zone_spread_run(n) for n in (1, 2, 4)},
        rounds=1, iterations=1)

    # Spreading one type across zones caps the storm size at N/zones.
    assert results[1]["max_concurrent_revocation"] == VMS
    assert results[2]["max_concurrent_revocation"] <= VMS // 2
    assert results[4]["max_concurrent_revocation"] <= VMS // 4
    # All on the same (cheapest) type: costs stay in one band.
    costs = [r["cost_per_vm_hour"] for r in results.values()]
    assert max(costs) - min(costs) < 0.008
    for summary in results.values():
        assert summary["state_loss_events"] == 0

    rows = [(f"{n} zone(s)",
             f"${results[n]['cost_per_vm_hour']:.4f}",
             f"{100 * results[n]['availability']:.4f}%",
             results[n]["revocation_events"],
             results[n]["max_concurrent_revocation"])
            for n in (1, 2, 4)]
    text = format_table(
        ["variant", "cost/VM-hr", "availability", "revocation events",
         "max storm"],
        rows,
        title=(f"Ablation — zone diversification of m3.medium "
               f"({VMS} VMs, {DAYS:.0f} days, volatile markets)"))
    report("ablation_zone_spreading", text)


def test_ablation_knee_bidding(benchmark, report):
    def sweep():
        archive = shared_archive(SEED, DAYS)
        od_bid = run_cell("2P-ML", "spotcheck-lazy", seed=SEED, days=DAYS,
                          vms=VMS, archive=archive)
        knee = run_cell("2P-ML", "spotcheck-lazy", seed=SEED, days=DAYS,
                        vms=VMS, archive=archive, bid_policy="knee")
        return od_bid, knee

    od_bid, knee = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # The knee sits at or below the on-demand price, so the knee bid
    # can only match or increase the revocation count — but never the
    # exposure to prices above on-demand, so cost must not rise much.
    assert knee["cost_per_vm_hour"] <= od_bid["cost_per_vm_hour"] * 1.10
    assert knee["state_loss_events"] == 0
    assert knee["availability"] > 0.99

    rows = [
        ("bid = on-demand price", f"${od_bid['cost_per_vm_hour']:.4f}",
         f"{100 * od_bid['availability']:.4f}%",
         od_bid["revocation_events"]),
        ("bid = availability knee", f"${knee['cost_per_vm_hour']:.4f}",
         f"{100 * knee['availability']:.4f}%",
         knee["revocation_events"]),
    ]
    text = format_table(
        ["variant", "cost/VM-hr", "availability", "revocation events"],
        rows,
        title=(f"Ablation — knee-of-the-curve bidding (2P-ML, {VMS} VMs, "
               f"{DAYS:.0f} days)"))
    report("ablation_knee_bidding", text)

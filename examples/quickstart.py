#!/usr/bin/env python
"""Quickstart: rent an always-available server from SpotCheck.

Builds a small EC2-like cloud with one synthetic spot market, starts a
SpotCheck deployment on top of it, requests a nested VM, and fast-
forwards through two weeks of market turbulence — including a price
spike that revokes the underlying spot server.  SpotCheck masks the
revocation with a bounded-time migration; the customer's server stays
up, keeps its IP, and returns to cheap spot capacity once the spike
abates.

Run:  python examples/quickstart.py
"""

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.zones import default_region
from repro.core import SpotCheckConfig, SpotCheckController
from repro.sim import Environment
from repro.traces.archive import TraceArchive
from repro.traces.calibration import M3_MARKET_PARAMS
from repro.traces.generator import TraceGenerator
from repro.workloads import TpcwWorkload

DAYS = 14


def main():
    env = Environment(seed=42)
    region = default_region(1)

    # Two weeks of synthetic m3.medium spot prices (volatility raised
    # so the quickstart reliably shows a revocation).
    from dataclasses import replace
    params = replace(M3_MARKET_PARAMS["m3.medium"],
                     spike_rate_per_hour=0.02, spike_duration_mean_s=1800.0)
    trace = TraceGenerator(seed=42).generate_market(
        "m3.medium", region.zones[0].name, params,
        duration_s=DAYS * 24 * 3600.0)

    controller = SpotCheckController.deploy(
        env, region, TraceArchive([trace]), SpotCheckConfig())

    def scenario():
        customer = controller.start_customer("quickstart")
        vm = yield controller.request_server(
            customer, workload=TpcwWorkload())
        print(f"[t={env.now:8.0f}s] server up: {vm.id} at {vm.private_ip} "
              f"on {vm.host.instance.market.value} host "
              f"{vm.host.instance.id}")
        return vm

    vm = env.run(until=env.process(scenario()))
    env.run(until=DAYS * 24 * 3600.0)
    controller.finalize()

    print(f"\nAfter {DAYS} days of market turbulence:")
    print(f"  server state ........ {vm.state.value} "
          f"(IP still {vm.private_ip})")
    for migration in controller.ledger.migrations:
        print(f"  t={migration.when:8.0f}s  {migration.cause:15s} "
              f"{migration.mechanism:13s} downtime {migration.downtime_s:6.1f}s"
              f"  degraded {migration.degraded_s:6.1f}s")

    summary = controller.summary(total_vms=1)
    on_demand = M3_CATALOG.get("m3.medium").on_demand_price
    breakdown = summary["cost_breakdown"]
    print(f"\n  availability ........ {100 * summary['availability']:.4f}%")
    print(f"  cost ................ ${summary['cost_per_vm_hour']:.4f}/hr "
          f"(on-demand: ${on_demand}/hr)")
    print(f"    spot ${breakdown['spot']:.2f}  on-demand "
          f"${breakdown['on-demand']:.2f}  backup ${breakdown['backup']:.2f}")
    print("    (a single VM pays for a whole backup server; SpotCheck "
          "amortizes one across 40 VMs\n     — see "
          "examples/policy_portfolio.py for fleet-scale economics)")
    print(f"  state-loss events ... {summary['state_loss_events']}")
    assert summary["state_loss_events"] == 0


if __name__ == "__main__":
    main()

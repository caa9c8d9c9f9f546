#!/usr/bin/env python
"""An interactive multi-tier web application on SpotCheck.

The paper's motivating workload: conventional wisdom said revocable
spot servers were only fit for batch jobs, because an interactive
service cannot tolerate sudden server loss.  This example runs a
TPC-W-like three-tier web application (a small fleet of application
servers) on SpotCheck for a month and reports what the *end users*
experience: the response-time profile across normal operation,
checkpointing overhead, and the rare migration windows.

Run:  python examples/interactive_webapp.py
"""

from dataclasses import replace

from repro.cloud.zones import default_region
from repro.core import SpotCheckConfig, SpotCheckController
from repro.sim import Environment
from repro.traces.archive import TraceArchive
from repro.traces.calibration import M3_MARKET_PARAMS
from repro.traces.generator import TraceGenerator
from repro.workloads import Conditions, TpcwWorkload

DAYS = 30
APP_SERVERS = 24


def main():
    env = Environment(seed=7)
    region = default_region(1)

    # A moderately volatile month so migrations actually happen.
    params = replace(M3_MARKET_PARAMS["m3.medium"],
                     spike_rate_per_hour=0.01)
    archive = TraceArchive([TraceGenerator(seed=7).generate_market(
        "m3.medium", region.zones[0].name, params,
        duration_s=DAYS * 24 * 3600.0)])

    controller = SpotCheckController.deploy(
        env, region, archive, SpotCheckConfig())

    def fleet():
        customer = controller.start_customer("webshop")
        vms = []
        for _ in range(APP_SERVERS):
            vms.append((yield controller.request_server(
                customer, workload=TpcwWorkload())))
        return vms

    vms = env.run(until=env.process(fleet()))
    env.run(until=DAYS * 24 * 3600.0)
    controller.finalize()

    workload = TpcwWorkload()
    total_s = DAYS * 24 * 3600.0
    normal_ms = workload.response_time_ms(Conditions(checkpointing=True))
    restore_ms = workload.response_time_ms(
        Conditions(restoring=True, restore_concurrency=APP_SERVERS))

    # Time-weighted response-time profile per app server.
    degraded_s = controller.ledger.total_degraded_s() / len(vms)
    down_s = controller.ledger.total_downtime_s() / len(vms)
    normal_frac = 1.0 - (degraded_s + down_s) / total_s

    print(f"TPC-W web application: {APP_SERVERS} app servers, "
          f"{DAYS} days on SpotCheck\n")
    print("response-time profile (per app server):")
    print(f"  normal operation    {100 * normal_frac:7.3f}% of time "
          f"at ~{normal_ms:.1f} ms (29 ms without checkpointing)")
    print(f"  migration windows   {100 * degraded_s / total_s:7.3f}% of "
          f"time at ~{restore_ms:.1f} ms")
    print(f"  unavailable         {100 * down_s / total_s:7.3f}% of time")
    print("  (the ~23 s downtime windows are shorter than TCP timeouts, "
          "so connections survive)")

    # What an end user actually measures: overlay a request stream on
    # each server's state history.
    from repro.workloads.requests import RequestAnalyzer
    analyzer = RequestAnalyzer(workload)
    per_server = [analyzer.analyze_vm(vm, 0.0, total_s, rate_rps=25.0,
                                      sla_threshold_ms=100.0)
                  for vm in vms]
    total_requests = sum(s.total_requests for s in per_server)
    failed = sum(s.failed_requests for s in per_server)
    worst = max(per_server, key=lambda s: s.p99_ms)
    print(f"\nclient view at 25 req/s per server "
          f"({total_requests / 1e6:.1f}M requests over the month):")
    print(f"  p50 / p95 / p99 ... {worst.p50_ms:.0f} / {worst.p95_ms:.0f} "
          f"/ {worst.p99_ms:.0f} ms (worst server)")
    print(f"  failed requests ... {failed:,.0f} "
          f"({100 * failed / total_requests:.4f}%)")
    print(f"  >100 ms SLA echo .. "
          f"{100 * worst.sla_violation_rate:.3f}% of successes")

    summary = controller.summary(total_vms=len(vms))
    on_demand_bill = 0.07 * len(vms) * total_s / 3600.0
    actual_bill = summary["cost_per_vm_hour"] * len(vms) * total_s / 3600.0
    print(f"\nmonthly bill: ${actual_bill:,.2f} on SpotCheck vs "
          f"${on_demand_bill:,.2f} on on-demand "
          f"({on_demand_bill / actual_bill:.1f}x saving)")
    print(f"availability: {100 * summary['availability']:.4f}%   "
          f"migrations: {summary['migrations']}   "
          f"state lost: {summary['state_loss_events']}")
    assert summary["state_loss_events"] == 0


if __name__ == "__main__":
    main()

"""Controller scale: a multi-customer fleet at 5x the paper's size.

The paper argues the centralized controller is not a bottleneck (and
can be sharded if it ever is).  This bench runs 200 nested VMs for
five customers over two simulated months, checks the invariants that
make a global controller trustworthy, and reports the simulator's own
throughput (simulated seconds per wall-clock second).
"""

import time

from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.inspection import check_invariants
from repro.experiments.reporting import format_table
from repro.experiments.scenario import PolicySimulation
from repro.sim.kernel import Environment
from repro.workloads import SpecJbbWorkload, TpcwWorkload

DAYS = 60.0
CUSTOMERS = 5
VMS_PER_CUSTOMER = 40
SEED = 47


def run_at_scale():
    env = Environment(seed=SEED)
    controller = SpotCheckController.deploy(
        env, default_region(1),
        PolicySimulation.build_archive(SEED, DAYS * 24 * 3600.0),
        SpotCheckConfig(allocation_policy="4P-ED"))

    def fleet():
        for c in range(CUSTOMERS):
            customer = controller.start_customer(f"tenant-{c}")
            for index in range(VMS_PER_CUSTOMER):
                workload = TpcwWorkload() if index % 2 \
                    else SpecJbbWorkload()
                yield controller.request_server(customer,
                                                workload=workload)

    started = time.time()
    env.run(until=env.process(fleet()))
    env.run(until=DAYS * 24 * 3600.0)
    controller.finalize()
    wall_s = time.time() - started
    total = CUSTOMERS * VMS_PER_CUSTOMER
    return {
        "summary": controller.summary(total_vms=total),
        "violations": check_invariants(controller),
        "wall_s": wall_s,
        "sim_rate": DAYS * 24 * 3600.0 / wall_s,
        "backups": controller.backup_pool.server_count,
        "total_vms": total,
    }


def test_scale_200_vms(benchmark, report):
    result = benchmark.pedantic(run_at_scale, rounds=1, iterations=1)
    summary = result["summary"]

    assert result["violations"] == []
    assert summary["state_loss_events"] == 0
    assert summary["availability"] > 0.999
    # 200 VMs across a 40-VM cap: at least five backup servers, which
    # also shrinks per-storm restore concurrency.
    assert result["backups"] >= 5
    # The simulator must stay practical: >100k simulated seconds per
    # wall second at this scale.
    assert result["sim_rate"] > 1e5

    rows = [
        ("fleet", f"{result['total_vms']} VMs / {CUSTOMERS} customers"),
        ("cost", f"${summary['cost_per_vm_hour']:.4f}/VM-hr"),
        ("availability", f"{100 * summary['availability']:.4f}%"),
        ("migrations", summary["migrations"]),
        ("backup servers", result["backups"]),
        ("wall time", f"{result['wall_s']:.1f}s "
         f"({result['sim_rate'] / 1e6:.2f}M sim-s/s)"),
    ]
    text = format_table(
        ["metric", "value"], rows,
        title=(f"Scale — {result['total_vms']} nested VMs over "
               f"{DAYS:.0f} days (5x the paper's fleet)"))
    report("scale_200_vms", text)

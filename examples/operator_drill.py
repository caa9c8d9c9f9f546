#!/usr/bin/env python
"""A day in the life of a SpotCheck operator.

Drives the operational surface a derivative-cloud operator relies on:
the controller's global state snapshot ("stores this information in a
database"), the consistency checker, live failure drills — killing a
backup server mid-flight — and the books at the end of the day.

Run:  python examples/operator_drill.py
"""

import json

from repro.cloud.zones import default_region
from repro.core import SpotCheckConfig, SpotCheckController
from repro.core.inspection import check_invariants, state_snapshot
from repro.experiments.scenario import PolicySimulation
from repro.sim import Environment
from repro.workloads import SpecJbbWorkload, TpcwWorkload

DAYS = 7
VMS = 10


def checkpoint(label, controller):
    violations = check_invariants(controller)
    status = "consistent" if not violations else f"BROKEN: {violations}"
    snapshot = state_snapshot(controller)
    hosts = sum(len(p["hosts"]) for p in snapshot["pools"])
    print(f"[{label:24s}] t={snapshot['time_s']:9.0f}s  "
          f"hosts={hosts:2d}  parked={len(snapshot['parked_vm_ids'])}  "
          f"backups={len(snapshot['backup_servers'])}  state={status}")
    assert not violations
    return snapshot


def main():
    env = Environment(seed=21)
    archive = PolicySimulation.build_archive(21, DAYS * 24 * 3600.0)
    controller = SpotCheckController.deploy(
        env, default_region(1), archive,
        SpotCheckConfig(allocation_policy="4P-ED"))

    def fleet():
        customer = controller.start_customer("prod")
        for index in range(VMS):
            workload = TpcwWorkload() if index % 2 else SpecJbbWorkload()
            yield controller.request_server(customer, workload=workload)

    env.run(until=env.process(fleet()))
    checkpoint("fleet up", controller)

    env.run(until=2 * 24 * 3600.0)
    checkpoint("after two days", controller)

    # Failure drill: kill the backup server under the whole fleet.
    victim = controller.backup_pool.servers[0]
    victims = controller.fail_backup_server(victim)
    print(f"  !! backup {victim.id} failed; {len(victims)} VMs exposed, "
          f"re-seeding on {victims[0].backup_assignment.id if victims else '-'}")
    checkpoint("right after failure", controller)

    env.run(until=3 * 24 * 3600.0)
    checkpoint("re-protected", controller)
    reprotected = sum(
        1 for vm in controller.all_vms()
        if vm.backup_assignment is not None
        and vm.id in vm.backup_assignment.store
        and vm.backup_assignment.store.image(vm.id).is_complete)
    print(f"  complete images after re-seed: {reprotected}")

    env.run(until=DAYS * 24 * 3600.0)
    controller.finalize()
    snapshot = checkpoint("end of week", controller)

    summary = controller.summary(total_vms=VMS)
    print("\nweek in review:")
    print(f"  migrations ......... {summary['migrations']} "
          f"({summary['revocation_events']} revocation events)")
    print(f"  availability ....... {100 * summary['availability']:.4f}%")
    print(f"  state lost ......... {summary['state_loss_events']}")
    print(f"  backup failures .... {snapshot['backup_failures']}")
    print(f"  cost ............... ${summary['cost_per_vm_hour']:.4f}/VM-hr")
    print("\nsample of the state database (first customer, first VM):")
    print(json.dumps(snapshot["customers"][0]["vms"][0], indent=2))


if __name__ == "__main__":
    main()

"""Long-horizon integration runs: invariants hold through months of
market turbulence, across policies, mechanisms, and feature mixes."""

import pytest

from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.inspection import check_invariants
from repro.experiments.scenario import PolicySimulation
from repro.sim.kernel import Environment
from repro.virt.migration.bounded import BoundedMigrationConfig
from repro.workloads import SpecJbbWorkload, TpcwWorkload

DAY = 24 * 3600.0


def run_with_checks(config, days=45.0, vms=12, seed=77, checks=6):
    env = Environment(seed=seed)
    archive = PolicySimulation.build_archive(seed, days * DAY)
    controller = SpotCheckController.deploy(env, default_region(1), archive,
                                            config)

    def fleet():
        customer = controller.start_customer("fleet")
        for index in range(vms):
            workload = TpcwWorkload() if index % 2 else SpecJbbWorkload()
            yield controller.request_server(customer, workload=workload)

    env.run(until=env.process(fleet()))
    for step in range(1, checks + 1):
        env.run(until=days * DAY * step / checks)
        violations = check_invariants(controller)
        assert violations == [], f"at check {step}: {violations}"
    controller.finalize()
    return controller


@pytest.mark.parametrize("policy", ["1P-M", "2P-ML", "4P-ED", "4P-COST",
                                    "4P-ST"])
def test_invariants_hold_for_every_policy(policy):
    controller = run_with_checks(SpotCheckConfig(allocation_policy=policy))
    summary = controller.summary(total_vms=12)
    assert summary["state_loss_events"] == 0
    assert summary["availability"] > 0.99
    assert all(vm.is_running for vm in controller.all_vms())


@pytest.mark.parametrize("mechanism", [
    BoundedMigrationConfig.yank_baseline,
    BoundedMigrationConfig.spotcheck_full,
    BoundedMigrationConfig.unoptimized_lazy,
    BoundedMigrationConfig.spotcheck_lazy,
])
def test_invariants_hold_for_every_mechanism(mechanism):
    controller = run_with_checks(SpotCheckConfig(
        allocation_policy="4P-ED", mechanism=mechanism()))
    assert controller.ledger.state_loss_events() == []


def test_invariants_with_all_features_on():
    controller = run_with_checks(SpotCheckConfig(
        allocation_policy="4P-ED",
        bid_policy="multiple", bid_multiple=2.0,
        proactive_migration=True, predictive_migration=True,
        hot_spares=1, use_staging=True))
    assert controller.ledger.state_loss_events() == []


def test_invariants_with_knee_bids_and_failures():
    controller = run_with_checks(SpotCheckConfig(
        allocation_policy="2P-ML", bid_policy="knee"))
    assert controller.ledger.state_loss_events() == []


def test_books_balance_long_run():
    controller = run_with_checks(SpotCheckConfig(allocation_policy="4P-ED"),
                                 days=60.0, vms=16)
    summary = controller.summary(total_vms=16)
    # VM-hours ~ fleet x horizon (allocation latency shaves a little).
    assert summary["vm_hours"] == pytest.approx(16 * 60 * 24, rel=0.02)
    # Every migration accounted with non-negative disruption.
    for migration in controller.ledger.migrations:
        assert migration.downtime_s >= 0.0
        assert migration.degraded_s >= 0.0
    # Total cost = breakdown sum.
    breakdown = summary["cost_breakdown"]
    total = controller.ledger.total_cost(controller.api)
    assert total == pytest.approx(sum(breakdown.values()), rel=1e-6)

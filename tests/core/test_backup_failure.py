"""Tests for backup-server failure injection and re-protection."""

import pytest

from repro.backup.server import BackupServer
from repro.core.config import SpotCheckConfig

from tests.core.test_controller import (
    SPIKE_START,
    build,
    launch_fleet,
    quiet_trace,
)


def build_quiet(config=None, count=3):
    env, api, controller = build(
        config or SpotCheckConfig(),
        traces={"m3.medium": quiet_trace("m3.medium", 0.07)})
    vms = launch_fleet(env, controller, count=count)
    return env, api, controller, vms


class TestFailureInjection:
    def test_victims_reassigned(self):
        env, api, controller, vms = build_quiet()
        failed = vms[0].backup_assignment
        assert all(vm.backup_assignment is failed for vm in vms)
        victims = controller.fail_backup_server(failed)
        assert set(victims) == set(vms)
        assert controller.backup_failures == 1
        # Re-protection starts immediately on a fresh server.
        assert all(vm.backup_assignment is not None and
                   vm.backup_assignment is not failed for vm in vms)

    def test_reseed_completes_over_time(self):
        env, api, controller, vms = build_quiet()
        controller.fail_backup_server(vms[0].backup_assignment)
        vm = vms[0]
        record = vm.backup_assignment.store.image(vm.id)
        assert not record.is_complete  # full copy still streaming
        env.run(until=env.now + 3600.0)
        assert record.is_complete

    def test_failed_server_not_reused(self):
        env, api, controller, vms = build_quiet()
        failed = vms[0].backup_assignment
        controller.fail_backup_server(failed)
        with pytest.raises(ValueError):
            failed.assign_stream("new-vm", 1e6)
        assert all(vm.backup_assignment.id != failed.id for vm in vms)

    def test_double_failure_idempotent_billing(self):
        env, api, controller, vms = build_quiet()
        server = vms[0].backup_assignment
        env.run(until=env.now + 7200.0)
        controller.fail_backup_server(server)
        failed_at = server.failed_at
        server.mark_failed()  # idempotent
        assert server.failed_at == failed_at
        env.run(until=env.now + 7200.0)
        controller.finalize()
        backup_costs = {label: cost for label, cost
                        in controller.ledger.extra_costs}
        # The failed server bills only until its failure.
        assert backup_costs[f"backup:{server.id}"] == pytest.approx(
            (failed_at - server.created_at) / 3600.0 * 0.28)

    def test_steady_flush_never_reaches_a_failed_server(self, monkeypatch):
        """Victims leave the dead server's flush cohort for the new
        server's: no round is ever issued to the failed datapath."""
        flows = []
        commit_flow = BackupServer.commit_flow

        def recording(server, *args, **kwargs):
            flows.append((server, server.failed))
            return commit_flow(server, *args, **kwargs)

        monkeypatch.setattr(BackupServer, "commit_flow", recording)
        env, api, controller, vms = build_quiet(
            SpotCheckConfig(steady_checkpoint_flush=True))
        env.run(until=env.now + 600.0)
        controller.fail_backup_server(vms[0].backup_assignment)
        env.run(until=env.now + 3 * 3600.0)
        assert not any(dead for _server, dead in flows)
        assert (vms[0].backup_assignment, False) in flows
        stats = controller.migrations.flush_drive_stats()
        assert (stats["schedulers"], stats["members"]) == (2, len(vms))


class TestRevocationDuringReseed:
    def test_exposed_vm_falls_back_to_live(self):
        # A spike hits while the re-seeded image is still incomplete:
        # the VM must ride the warning with a live migration (risk
        # recorded) instead of restoring from a half-copied image.
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        vms = launch_fleet(env, controller, count=1)
        vm = vms[0]
        env.run(until=SPIKE_START - 100.0)
        controller.fail_backup_server(vm.backup_assignment)
        env.run(until=SPIKE_START + 600.0)
        [migration] = [m for m in controller.ledger.migrations
                       if m.cause == "revocation"]
        assert migration.mechanism == "live"
        assert vm.state.value == "running"

    def test_completed_reseed_uses_bounded_path(self):
        env, api, controller = build(SpotCheckConfig(return_to_spot=False))
        vms = launch_fleet(env, controller, count=1)
        vm = vms[0]
        # Fail early: the re-seed has tens of ks to finish pre-spike.
        env.run(until=5000.0)
        controller.fail_backup_server(vm.backup_assignment)
        env.run(until=SPIKE_START + 600.0)
        [migration] = [m for m in controller.ledger.migrations
                       if m.cause == "revocation"]
        assert migration.mechanism == "bounded-lazy"
        assert migration.state_safe

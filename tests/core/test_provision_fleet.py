"""The bulk fleet-provisioning path and its steady-flush wiring."""

import dataclasses
import gc
import tracemalloc
import weakref

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Market
from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.core.shard import fleet_backup_spec, steady_rate_bps
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive
from repro.workloads import default_fleet_mix
from repro.workloads.mix import WriteScaledWorkload

DAY = 24 * 3600.0


def build(config=None):
    env = Environment(seed=17)
    itype = M3_CATALOG.get("m3.2xlarge")
    archive = TraceArchive([PriceTrace(
        [0.0, 10 * DAY], [0.08, 0.08], itype.name, "us-east-1a",
        itype.on_demand_price)])
    controller = SpotCheckController.deploy(env, default_region(1), archive,
                                            config)
    return env, controller.api, controller


def provision(env, controller, count, **kwargs):
    customer = controller.start_customer("fleet")
    vms = env.run(until=controller.provision_fleet(customer, count,
                                                   **kwargs))
    return customer, vms


class TestProvisionFleet:
    def test_boots_exact_count_on_sliced_hosts(self):
        env, api, controller = build()
        customer, vms = provision(env, controller, 20)
        assert len(vms) == 20
        pool = controller.pools.spot_pool("m3.2xlarge",
                                          controller.zone.name)
        # m3.2xlarge slices into 8 m3.medium slots -> ceil(20/8) hosts.
        assert pool.host_count == 3
        assert pool.vm_count == 20
        assert all(vm.host.instance.market is Market.SPOT for vm in vms)
        assert all(vm.customer is customer for vm in vms)

    def test_every_vm_gets_a_backup_assignment(self):
        env, api, controller = build()
        _, vms = provision(env, controller, 12)
        for vm in vms:
            backup = vm.backup_assignment
            assert backup is not None
            assert vm.id in backup.store

    def test_backup_cap_spreads_across_servers(self):
        env, api, controller = build(SpotCheckConfig(vms_per_backup=8))
        provision(env, controller, 20)
        assert controller.backup_pool.server_count == 3

    def test_backup_cap_never_exceeds_the_server_spec(self):
        # A cap far above the default spec's 40 VMs must not pile the
        # fleet onto one server whose ingest path cannot carry it.
        env, api, controller = build(SpotCheckConfig(vms_per_backup=2000))
        provision(env, controller, 200)
        servers = controller.backup_pool.servers
        assert len(servers) >= 5
        assert all(server.assigned_vms <= 40 for server in servers)

    def test_steady_flush_forms_one_cohort(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 16)
        stats = controller.migrations.flush_drive_stats()
        assert stats["schedulers"] == 1
        assert stats["members"] == 16
        assert stats["cohorts_created"] == 1

    def test_finalize_settles_flush_credits(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 10)
        env.run(until=env.now + 3600.0)
        controller.finalize()
        scheduler = next(iter(
            controller.migrations._flush_schedulers.values()))
        # An hour of steady streaming at the analytic rate, credited
        # to every member at settle despite O(1) rounds.
        rate = vms[0].checkpoint_stream.stream_rate_bps()
        for vm in vms:
            assert scheduler.flushed[vm.id] == \
                pytest.approx(rate * 3600.0, rel=0.15)
            # The seed, then the whole settled credit as one commit.
            image = vm.backup_assignment.store.image(vm.id)
            assert image.commits == 2

    def test_released_backup_leaves_flush_group(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 4)
        assert controller.migrations.flush_drive_stats()["members"] == 4
        controller.release_backup(vms[0])
        assert controller.migrations.flush_drive_stats()["members"] == 3

    def test_rounds_before_release_skip_a_reopened_image(self):
        """A VM that releases its backup and is re-assigned the same
        server gets a fresh image; the rounds it flushed before the
        release settle into the scheduler's totals, not that image."""
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 2)
        vm = vms[0]
        backup = vm.backup_assignment
        env.run(until=env.now + 3600.0)
        controller.release_backup(vm)
        controller._assign_backup(vm)
        assert vm.backup_assignment is backup
        env.run(until=env.now + 3600.0)
        controller.finalize()
        scheduler = controller.migrations._flush_schedulers[backup.id]
        history = backup.store.image(vm.id).history
        assert len(history) == 2
        assert 0 < history[1][1] < scheduler.flushed[vm.id]

    def test_count_must_be_positive(self):
        env, api, controller = build()
        customer = controller.start_customer("fleet")
        with pytest.raises(ValueError):
            env.run(until=controller.provision_fleet(customer, 0))


@pytest.fixture
def restore_gc():
    """Leave the collector as the test found it."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


class TestCollectorPause:
    """The bulk build runs with the cyclic collector paused and freezes
    what it booted; the pause must end however the build ends."""

    def test_boot_runs_at_most_one_full_collection(self, restore_gc):
        """Counts, not host time: at 20k VMs an unpaused boot runs
        several full collections over the growing fleet; the paused
        one runs only the deliberate collection before the build."""
        n_vms = 20_000
        env, api, controller = build(fleet_config(n_vms))
        customer = controller.start_customer("fleet")
        factory = default_fleet_mix(classes=8).workload_factory(n_vms)
        full = []

        def count_full(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.enable()
        gc.callbacks.append(count_full)
        try:
            vms = env.run(until=controller.provision_fleet(
                customer, n_vms, workload_factory=factory))
        finally:
            gc.callbacks.remove(count_full)
        assert len(vms) == n_vms
        assert len(full) <= 1
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()

    def test_collector_restarts_when_the_build_raises(self, restore_gc):
        env, api, controller = build()
        customer = controller.start_customer("fleet")
        calls = []

        def failing_factory():
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("workload factory failed")
            return None

        gc.enable()
        with pytest.raises(RuntimeError, match="workload factory failed"):
            env.run(until=controller.provision_fleet(
                customer, 10, workload_factory=failing_factory))
        assert len(calls) == 5
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, restore_gc):
        env, api, controller = build()
        gc.disable()
        _, vms = provision(env, controller, 10)
        assert len(vms) == 10
        assert not gc.isenabled()

    def test_next_boot_releases_the_previous_fleet(self, restore_gc):
        """The freeze exempts only the latest fleet: once nothing holds
        cell A, booting cell B collects it."""

        def boot_cell():
            env, _, controller = build()
            provision(env, controller, 40)
            return weakref.ref(env)

        gc.enable()
        first = boot_cell()
        # Held only by its own cycles, frozen with its fleet.
        assert first() is not None
        boot_cell()
        assert first() is None


def fresh_workload_factory(mix, total):
    """``mix``'s class schedule, but a fresh workload on every call."""
    factors = [entry.factor for entry, count
               in zip(mix.classes, mix.counts(total)) for _ in range(count)]
    calls = iter(factors)
    return lambda: WriteScaledWorkload(next(calls))


def fleet_config(n_vms):
    """One backup server sized, as the fleet cells size it, to carry
    ``n_vms`` steady streams without a backlog."""
    config = SpotCheckConfig(vms_per_backup=n_vms,
                             steady_checkpoint_flush=True)
    config.backup_spec, _ = fleet_backup_spec(
        n_vms, steady_rate_bps(Environment(), config))
    return config


def run_cell(n_vms, factory):
    """Boot ``n_vms`` with ``factory``, run a day, finalize."""
    env, api, controller = build(fleet_config(n_vms))
    _, vms = provision(env, controller, n_vms, workload_factory=factory)
    env.run(until=env.now + DAY)
    controller.finalize()
    return env, controller, vms


def outcome(env, controller, vms):
    images = [vm.backup_assignment.store.image(vm.id) for vm in vms]
    return {"summary": controller.summary(total_vms=len(vms)),
            "events": env.events_processed,
            "flush": controller.migrations.flush_drive_stats(),
            "images": [(image.commits, image.committed_bytes)
                       for image in images]}


class TestSharedClassKits:
    """Each workload class's memory model, checkpoint stream and plan
    are built once and shared by its VMs; the run is the one a fresh
    workload, and so a fresh memory model and stream, per VM gives."""

    N_VMS = 2_000

    def test_mix_cell_matches_fresh_workloads(self):
        mix = default_fleet_mix(classes=8)
        shared = run_cell(self.N_VMS, mix.workload_factory(self.N_VMS))
        fresh = run_cell(self.N_VMS,
                         fresh_workload_factory(mix, self.N_VMS))
        assert len({id(vm.checkpoint_stream) for vm in shared[2]}) == 8
        assert len({id(vm.checkpoint_stream) for vm in fresh[2]}) == \
            self.N_VMS
        assert outcome(*shared) == outcome(*fresh)

    def test_default_profile_cell_shares_one_kit(self):
        """``workload=None`` (the sharded cells' path) shares one memory
        model and stream, and matches the base mix class, whose write
        rate is the default profile's."""
        default = run_cell(self.N_VMS, None)
        base = run_cell(self.N_VMS,
                        lambda: WriteScaledWorkload(1.0))
        vms = default[2]
        assert len({id(vm.memory) for vm in vms}) == 1
        assert len({id(vm.checkpoint_stream) for vm in vms}) == 1
        assert outcome(*default) == outcome(*base)

    def test_shared_objects_stay_unmutated(self):
        env, api, controller = build(fleet_config(self.N_VMS))
        factory = default_fleet_mix(classes=8).workload_factory(self.N_VMS)
        _, vms = provision(env, controller, self.N_VMS,
                           workload_factory=factory)
        first = vms[0]
        memory, stream, workload = (first.memory, first.checkpoint_stream,
                                    first.workload)
        peers = [vm for vm in vms if vm.workload is workload]
        assert len(peers) == self.N_VMS // 8
        assert all(vm.memory is memory and vm.checkpoint_stream is stream
                   for vm in peers)
        before = (dataclasses.asdict(memory), dict(vars(stream)),
                  dict(vars(workload)))
        env.run(until=env.now + DAY)
        controller.finalize()
        with pytest.raises(dataclasses.FrozenInstanceError):
            memory.write_rate_pages = 0.0
        assert (dataclasses.asdict(memory), dict(vars(stream)),
                dict(vars(workload))) == before
        assert stream.memory is memory


class TestFootprint:
    """What one booted VM leaves alive, in counts and traced bytes; a
    tier-1 guard in the style of :class:`TestCollectorPause`."""

    def test_20k_vm_boot_per_vm_footprint(self, restore_gc):
        n_vms = 20_000
        env, api, controller = build(fleet_config(n_vms))
        customer = controller.start_customer("fleet")
        factory = default_fleet_mix(classes=8).workload_factory(n_vms)
        gc.unfreeze()
        gc.collect()
        objects_before = len(gc.get_objects())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        bytes_before = tracemalloc.get_traced_memory()[0]
        try:
            vms = env.run(until=controller.provision_fleet(
                customer, n_vms, workload_factory=factory))
            bytes_after = tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        gc.unfreeze()
        objects_per_vm = (len(gc.get_objects()) - objects_before) / n_vms
        bytes_per_vm = (bytes_after - bytes_before) / n_vms
        assert len(vms) == n_vms
        assert objects_per_vm <= 8.0, objects_per_vm
        assert bytes_per_vm <= 1200.0, bytes_per_vm

"""Tests for nested VMs, hosts, and the nested hypervisor."""

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.virt.hypervisor import NestedHypervisor
from repro.virt.vm import NestedVM, VMState
from repro.workloads import TpcwWorkload

from tests.core.test_pools import make_host

MEDIUM = M3_CATALOG.get("m3.medium")
LARGE = M3_CATALOG.get("m3.large")
XLARGE = M3_CATALOG.get("m3.xlarge")


class TestNestedVM:
    def test_workload_drives_memory_model(self, env):
        vm = NestedVM(env, MEDIUM, workload=TpcwWorkload())
        assert vm.memory.write_rate_pages == TpcwWorkload.write_rate_pages
        assert vm.memory.total_bytes < MEDIUM.memory_bytes

    def test_default_memory_without_workload(self, env):
        vm = NestedVM(env, MEDIUM)
        assert vm.memory.total_bytes > 0

    def test_state_log_tracks_transitions(self, env):
        vm = NestedVM(env, MEDIUM)
        vm.set_state(VMState.RUNNING)
        env._now = 100.0
        vm.set_state(VMState.SUSPENDED)
        env._now = 130.0
        vm.set_state(VMState.RUNNING)
        assert vm.downtime_between(0, 200) == pytest.approx(30.0)

    def test_degraded_time_between(self, env):
        vm = NestedVM(env, MEDIUM)
        vm.set_state(VMState.RUNNING)
        env._now = 50.0
        vm.set_state(VMState.RESTORING)
        env._now = 80.0
        vm.set_state(VMState.RUNNING)
        assert vm.degraded_time_between(0, 100) == pytest.approx(30.0)
        assert vm.degraded_time_between(60, 100) == pytest.approx(20.0)

    def test_terminated_vm_rejects_transitions(self, env):
        vm = NestedVM(env, MEDIUM)
        vm.set_state(VMState.TERMINATED)
        with pytest.raises(ValueError):
            vm.set_state(VMState.RUNNING)

    def test_is_running_states(self, env):
        vm = NestedVM(env, MEDIUM)
        assert not vm.is_running  # provisioning
        vm.set_state(VMState.RUNNING)
        assert vm.is_running
        vm.set_state(VMState.RESTORING)
        assert vm.is_running
        vm.set_state(VMState.SUSPENDED)
        assert not vm.is_running


class TestNestedHypervisor:
    def test_slicing_capacity_checks(self, env):
        with pytest.raises(ValueError):
            NestedHypervisor(env, MEDIUM, MEDIUM, slots=2)
        NestedHypervisor(env, LARGE, MEDIUM, slots=2)
        with pytest.raises(ValueError):
            NestedHypervisor(env, LARGE, MEDIUM, slots=3)

    def test_vcpu_limit_enforced(self, env):
        # m3.xlarge has 4 vCPUs and 15 GiB: memory would fit 4 mediums,
        # and vCPUs exactly 4 — 5 must fail on memory *and* vCPUs.
        NestedHypervisor(env, XLARGE, MEDIUM, slots=4)
        with pytest.raises(ValueError):
            NestedHypervisor(env, XLARGE, MEDIUM, slots=5)

    def test_boot_fills_slots(self, env, zone):
        host = make_host(env, zone, LARGE, slots=2)
        vm1, vm2 = NestedVM(env, MEDIUM), NestedVM(env, MEDIUM)
        host.hypervisor.boot(vm1)
        host.hypervisor.boot(vm2)
        assert host.free_slots == 0
        with pytest.raises(ValueError):
            host.hypervisor.boot(NestedVM(env, MEDIUM))

    def test_boot_wrong_type_rejected(self, env, zone):
        host = make_host(env, zone, LARGE, slots=2)
        wrong = NestedVM(env, LARGE)
        with pytest.raises(ValueError):
            host.hypervisor.boot(wrong)

    def test_evict_frees_slot(self, env, zone):
        host = make_host(env, zone)
        vm = NestedVM(env, MEDIUM)
        host.hypervisor.boot(vm)
        host.hypervisor.evict(vm)
        assert host.free_slots == 1

    def test_reservation_blocks_slot(self, env, zone):
        host = make_host(env, zone, LARGE, slots=2)
        host.hypervisor.reserve_slot()
        assert host.free_slots == 1
        host.hypervisor.reserve_slot()
        assert host.free_slots == 0
        with pytest.raises(ValueError):
            host.hypervisor.reserve_slot()

    def test_attach_consumes_reservation(self, env, zone):
        host = make_host(env, zone)
        host.hypervisor.reserve_slot()
        vm = NestedVM(env, MEDIUM)
        host.hypervisor.attach(vm)  # consumes the reservation
        assert host.hypervisor.reserved == 0
        assert vm in host.vms

    def test_cancel_reservation(self, env, zone):
        host = make_host(env, zone)
        host.hypervisor.reserve_slot()
        host.hypervisor.cancel_reservation()
        assert host.free_slots == 1
        host.hypervisor.cancel_reservation()  # never negative
        assert host.hypervisor.reserved == 0

    def test_host_properties_delegate(self, env, zone):
        host = make_host(env, zone, LARGE, slots=2)
        assert host.itype is LARGE
        assert host.zone == zone
        assert host.link.capacity == pytest.approx(LARGE.network_gbps * 125e6)

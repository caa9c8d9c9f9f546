"""Multi-customer behaviour: per-customer spreading, isolation,
per-customer accounting surfaces."""

from repro.core.config import SpotCheckConfig
from repro.virt.vm import VMState
from repro.workloads import TpcwWorkload

from tests.core.test_controller import (
    SPIKE_START,
    build,
    quiet_trace,
)


def build_quiet_4pools(config=None):
    traces = {
        name: quiet_trace(name, od)
        for name, od in (("m3.medium", 0.07), ("m3.large", 0.14),
                         ("m3.xlarge", 0.28), ("m3.2xlarge", 0.56))
    }
    return build(config or SpotCheckConfig(allocation_policy="4P-ED"),
                 traces=traces)


def launch_for(env, controller, customer, count):
    def flow():
        vms = []
        for _ in range(count):
            vms.append((yield controller.request_server(
                customer, workload=TpcwWorkload())))
        return vms
    return env.run(until=env.process(flow()))


class TestPerCustomerSpreading:
    def test_each_customer_spreads_individually(self):
        # Section 4.2: each customer's fleet individually diversifies —
        # customer B's first VM must start the pool cycle afresh, not
        # continue from where customer A's cursor left off.
        env, api, controller = build_quiet_4pools()
        alice = controller.start_customer("alice")
        bob = controller.start_customer("bob")
        alice_vms = launch_for(env, controller, alice, 4)
        bob_vms = launch_for(env, controller, bob, 4)
        alice_pools = sorted(vm.host.itype.name for vm in alice_vms)
        bob_pools = sorted(vm.host.itype.name for vm in bob_vms)
        expected = sorted(["m3.medium", "m3.large", "m3.xlarge",
                           "m3.2xlarge"])
        assert alice_pools == expected
        assert bob_pools == expected

    def test_single_customer_small_fleet_still_spreads(self):
        env, api, controller = build_quiet_4pools()
        carol = controller.start_customer("carol")
        vms = launch_for(env, controller, carol, 2)
        assert len({vm.host.itype.name for vm in vms}) == 2


class TestIsolation:
    def test_customers_share_hosts_but_not_vms(self):
        # Slicing multiplexes customers onto one native VM; the nested
        # hypervisor keeps their nested VMs distinct.
        traces = {"m3.medium": quiet_trace("m3.medium", 0.07),
                  "m3.large": quiet_trace("m3.large", 0.14)}
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML"), traces=traces)
        alice = controller.start_customer("alice")
        bob = controller.start_customer("bob")
        [alice_vm1] = launch_for(env, controller, alice, 1)
        [alice_vm2] = launch_for(env, controller, alice, 1)
        [bob_vm1] = launch_for(env, controller, bob, 1)
        [bob_vm2] = launch_for(env, controller, bob, 1)
        large_vms = [vm for vm in (alice_vm1, alice_vm2, bob_vm1, bob_vm2)
                     if vm.host.itype.name == "m3.large"]
        assert len(large_vms) == 2
        assert large_vms[0].host is large_vms[1].host  # shared host
        assert large_vms[0].customer is not large_vms[1].customer
        assert large_vms[0].private_ip != large_vms[1].private_ip

    def test_own_subnet_per_customer(self):
        env, api, controller = build_quiet_4pools()
        alice = controller.start_customer("alice")
        bob = controller.start_customer("bob")
        launch_for(env, controller, alice, 1)
        launch_for(env, controller, bob, 1)
        alice_net = list(alice.subnets.values())[0].network
        bob_net = list(bob.subnets.values())[0].network
        assert not alice_net.overlaps(bob_net)

    def test_head_vm_designation(self):
        env, api, controller = build_quiet_4pools()
        alice = controller.start_customer("alice")
        vms = launch_for(env, controller, alice, 3)
        assert alice.head_vm is vms[0]
        env.run(until=controller.relinquish(vms[0]))
        assert alice.head_vm is vms[1]  # head moves on relinquish


class TestStormImpactPerCustomer:
    def test_spread_customers_lose_at_most_their_pool_share(self):
        # Two customers, each spread over medium+large; the medium
        # market spikes: each customer loses exactly one VM to the
        # storm, not their whole fleet.
        from tests.core.test_controller import spiky_trace
        traces = {"m3.medium": spiky_trace("m3.medium", 0.07),
                  "m3.large": quiet_trace("m3.large", 0.14)}
        env, api, controller = build(
            SpotCheckConfig(allocation_policy="2P-ML",
                            return_to_spot=False), traces=traces)
        alice = controller.start_customer("alice")
        bob = controller.start_customer("bob")
        alice_vms = launch_for(env, controller, alice, 2)
        bob_vms = launch_for(env, controller, bob, 2)
        env.run(until=SPIKE_START + 600.0)
        for vms in (alice_vms, bob_vms):
            displaced = [vm for vm in vms
                         if vm.host.instance.market.value == "on-demand"]
            assert len(displaced) == 1
            assert all(vm.state is VMState.RUNNING for vm in vms)

"""Virtual private cloud: subnets, network interfaces, private IPs.

SpotCheck places all of its native servers in one VPC so it can assign
each nested VM its own private IP, and — on migration — deallocate the
IP from an interface on the source host and reassign it to an unused
interface on the destination host, keeping the nested VM's address (and
therefore its TCP connections) intact.
"""

import ipaddress

from repro.cloud.errors import InvalidOperation, NotFound


class NetworkInterface:
    """An elastic network interface (ENI) with assignable private IPs."""

    def __init__(self, env, subnet):
        self.env = env
        self.id = f"eni-{env.next_id('eni'):08x}"
        self.subnet = subnet
        self.attached_to = None
        self.private_ips = set()

    @property
    def is_attached(self):
        return self.attached_to is not None

    def _attach(self, instance):
        if self.is_attached:
            raise InvalidOperation(f"{self.id} already attached")
        self.attached_to = instance
        instance.interfaces.append(self)

    def _detach(self):
        if not self.is_attached:
            raise InvalidOperation(f"{self.id} is not attached")
        if self in self.attached_to.interfaces:
            self.attached_to.interfaces.remove(self)
        self.attached_to = None

    def __repr__(self):
        state = f"on {self.attached_to.id}" if self.is_attached else "detached"
        return f"<ENI {self.id} {state} ips={sorted(map(str, self.private_ips))}>"


class Subnet:
    """A subnet of the VPC tied to one availability zone.

    SpotCheck "allocates a subnet within a shared data plane ... to each
    customer"; the VPC hands out one subnet per (customer, zone).
    """

    def __init__(self, cidr, zone):
        self.network = ipaddress.ip_network(cidr)
        self.zone = zone
        self._hosts = self.network.hosts()
        self._released = []
        self.allocated = set()

    def allocate_ip(self):
        """Allocate the next free private IP in this subnet."""
        if self._released:
            ip = self._released.pop()
        else:
            try:
                ip = next(self._hosts)
            except StopIteration:
                raise InvalidOperation(
                    f"subnet {self.network} exhausted") from None
        self.allocated.add(ip)
        return ip

    def release_ip(self, ip):
        if ip not in self.allocated:
            raise NotFound(f"{ip} not allocated in {self.network}")
        self.allocated.remove(ip)
        self._released.append(ip)


class Vpc:
    """A virtual private cloud spanning a region's zones."""

    def __init__(self, env, region, cidr="10.0.0.0/16"):
        self.env = env
        self.id = f"vpc-{env.next_id('vpc'):08x}"
        self.region = region
        self.network = ipaddress.ip_network(cidr)
        self._subnet_blocks = self.network.subnets(new_prefix=24)
        self.subnets = []
        self.interfaces = {}

    def create_subnet(self, zone):
        """Carve the next /24 out of the VPC block for ``zone``."""
        try:
            block = next(self._subnet_blocks)
        except StopIteration:
            raise InvalidOperation(f"VPC {self.network} out of subnets") from None
        subnet = Subnet(str(block), zone)
        self.subnets.append(subnet)
        return subnet

    def create_interface(self, subnet):
        """Create a detached ENI in ``subnet``."""
        eni = NetworkInterface(self.env, subnet)
        self.interfaces[eni.id] = eni
        return eni

    def interface(self, eni_id):
        try:
            return self.interfaces[eni_id]
        except KeyError:
            raise NotFound(f"no interface {eni_id!r}") from None

    def assign_private_ip(self, eni, ip=None):
        """Assign ``ip`` (or a fresh subnet IP) to the interface."""
        if ip is None:
            ip = eni.subnet.allocate_ip()
        else:
            ip = ipaddress.ip_address(ip)
            if ip not in eni.subnet.network:
                raise InvalidOperation(
                    f"{ip} is outside subnet {eni.subnet.network}")
            if ip not in eni.subnet.allocated:
                eni.subnet.allocated.add(ip)
        eni.private_ips.add(ip)
        return ip

    def unassign_private_ip(self, eni, ip):
        """Remove ``ip`` from the interface, keeping it reserved.

        The address stays allocated in the subnet so SpotCheck can move
        it to another interface without racing other allocations.
        """
        ip = ipaddress.ip_address(ip)
        if ip not in eni.private_ips:
            raise NotFound(f"{ip} not assigned to {eni.id}")
        eni.private_ips.remove(ip)

    def move_private_ip(self, ip, source_eni, dest_eni):
        """Reassign ``ip`` from one interface to another (migration path)."""
        self.unassign_private_ip(source_eni, ip)
        return self.assign_private_ip(dest_eni, ip)

"""Customers of the derivative cloud."""


class Customer:
    """One SpotCheck customer.

    Customers see an EC2-like interface: they request and relinquish
    servers of advertised types, and each owns a private subnet in
    SpotCheck's VPC with one public IP on a designated "head" VM.
    """

    def __init__(self, env, name=None):
        self.id = f"cust-{env.next_id('cust'):04d}"
        self.name = name or self.id
        self.vms = []
        self.subnets = {}
        #: The nested VM carrying the customer's single public IP.
        self.head_vm = None
        self._vm_listeners = None

    def on_vm_change(self, callback):
        """Call ``callback(customer, vm, added)`` on fleet changes.

        ``added`` is True for a grant, False for a relinquish.  Fires
        synchronously from :meth:`add_vm` / :meth:`remove_vm` so the
        traffic engine can flush the pre-change fleet inline.
        """
        if self._vm_listeners is None:
            self._vm_listeners = []
        if callback not in self._vm_listeners:
            self._vm_listeners.append(callback)

    def add_vm(self, vm):
        self.vms.append(vm)
        if self.head_vm is None:
            self.head_vm = vm
        if self._vm_listeners:
            for callback in self._vm_listeners:
                callback(self, vm, True)

    def remove_vm(self, vm):
        if vm in self.vms:
            self.vms.remove(vm)
        if self.head_vm is vm:
            self.head_vm = self.vms[0] if self.vms else None
        if self._vm_listeners:
            for callback in self._vm_listeners:
                callback(self, vm, False)

    def __repr__(self):
        return f"<Customer {self.name} vms={len(self.vms)}>"

"""Nested VMs — the unit SpotCheck sells to its customers."""

import enum

from repro.virt.memory import MemoryModel

#: The latest ``(time, state)`` entry made for each state.  Entries are
#: immutable, so VMs that enter a state at the same clock reading (the
#: same ``env.now`` object) share one: a bulk boot logs one PROVISIONING
#: and one RUNNING entry for the whole fleet, not two tuples per VM.
_LAST_ENTRY = {}


def _log_entry(now, state):
    """The ``(now, state)`` log entry, shared with same-instant peers."""
    entry = _LAST_ENTRY.get(state)
    if entry is None or entry[0] is not now:
        entry = _LAST_ENTRY[state] = (now, state)
    return entry


def default_memory(itype, workload=None):
    """The memory model of a nested VM sold as ``itype``.

    The workload's dirtying profile if it has one, else the default
    2000 pages/s.  The nested hypervisor and dom0 take a slice of the
    host's RAM; the paper's m3.medium nested VMs expose roughly half
    the host's 3.75 GiB to the guest.
    """
    guest_bytes = int(itype.memory_gib * 0.45 * (1024 ** 3))
    if workload is not None:
        return workload.memory_model(guest_bytes)
    return MemoryModel(total_bytes=guest_bytes, write_rate_pages=2000.0)


class VMState(enum.Enum):
    """Lifecycle of a nested VM as SpotCheck's controller sees it."""

    PROVISIONING = "provisioning"
    RUNNING = "running"
    #: Live pre-copy in progress: running, slightly degraded.
    MIGRATING = "migrating"
    #: Suspended between checkpoint commit and resume at destination.
    SUSPENDED = "suspended"
    #: Lazily restoring: running, degraded by demand paging.
    RESTORING = "restoring"
    TERMINATED = "terminated"


class NestedVM:
    """A customer-visible VM running inside a nested hypervisor.

    Attributes
    ----------
    itype:
        The *advertised* instance type (what the customer asked for —
        the native host may be larger, holding several nested VMs).
    memory:
        :class:`~repro.virt.memory.MemoryModel` for the guest.
    workload:
        Optional workload model (drives dirty rate and performance
        reporting); anything with a ``memory_model(guest_bytes)``
        method and performance hooks.
    private_ip:
        The VPC address that follows the VM across migrations.
    """

    # Slotted: a fleet holds one per VM, and without a per-instance
    # ``__dict__`` each costs one GC-tracked object on every supported
    # Python, not two before 3.11.  ``_migration_busy`` stays unset
    # until the VM's first migration (read with a ``getattr`` default).
    __slots__ = ("env", "id", "itype", "customer", "workload", "memory",
                 "state", "host", "private_ip", "eni", "volume",
                 "backup_assignment", "checkpoint_stream", "created_at",
                 "state_log", "_state_listeners", "_migration_busy")

    def __init__(self, env, itype, memory=None, workload=None, customer=None):
        self.env = env
        self.id = f"nvm-{env.next_id('nvm'):06x}"
        self.itype = itype
        self.customer = customer
        self.workload = workload
        self.memory = memory if memory is not None else \
            default_memory(itype, workload)
        self.state = VMState.PROVISIONING
        self.host = None
        self.private_ip = None
        self.eni = None
        self.volume = None
        self.backup_assignment = None
        self.checkpoint_stream = None
        self.created_at = env.now
        #: (time, state) transition log for availability accounting;
        #: entries may be shared with other VMs (see :func:`_log_entry`).
        self.state_log = [_log_entry(env.now, VMState.PROVISIONING)]
        self._state_listeners = None

    def on_state_change(self, callback):
        """Call ``callback(vm, old_state, new_state)`` on transitions.

        Listeners fire synchronously inside :meth:`set_state`, before
        any other process observes the new state — the traffic engine
        uses this to batch-account the elapsed segment under the old
        state without scheduling a kernel event.
        """
        if self._state_listeners is None:
            self._state_listeners = []
        if callback not in self._state_listeners:
            self._state_listeners.append(callback)

    def set_state(self, state):
        if self.state is VMState.TERMINATED:
            raise ValueError(f"{self.id} is terminated")
        old_state = self.state
        self.state = state
        self.state_log.append(_log_entry(self.env.now, state))
        if self._state_listeners:
            for callback in self._state_listeners:
                callback(self, old_state, state)

    @property
    def is_running(self):
        return self.state in (
            VMState.RUNNING, VMState.MIGRATING, VMState.RESTORING)

    def downtime_between(self, start, end):
        """Seconds of SUSPENDED/PROVISIONING time within [start, end]."""
        return self._time_in_states(
            start, end, (VMState.SUSPENDED, VMState.PROVISIONING))

    def degraded_time_between(self, start, end):
        """Seconds spent MIGRATING or RESTORING within [start, end]."""
        return self._time_in_states(
            start, end, (VMState.MIGRATING, VMState.RESTORING))

    def _time_in_states(self, start, end, states):
        total = 0.0
        log = self.state_log
        for i, (when, state) in enumerate(log):
            seg_end = log[i + 1][0] if i + 1 < len(log) else end
            lo, hi = max(when, start), min(seg_end, end)
            if hi > lo and state in states:
                total += hi - lo
        return total

    def __repr__(self):
        return f"<NestedVM {self.id} {self.itype.name} {self.state.value}>"

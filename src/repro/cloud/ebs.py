"""Network-attached block storage (EBS-like volumes).

The prototype requires every nested VM to keep its root disk and
persistent state on network-attached volumes; migrating a nested VM
therefore means detaching the volume from the source host and attaching
it at the destination, and these two control-plane operations are part
of the ~23 s migration downtime (Table 1).
"""

import enum

from repro.cloud.errors import InvalidOperation


class VolumeState(enum.Enum):
    AVAILABLE = "available"
    ATTACHING = "attaching"
    IN_USE = "in-use"
    DETACHING = "detaching"
    DELETED = "deleted"


class Volume:
    """A network-attached disk volume."""

    def __init__(self, env, size_gib, zone):
        if size_gib <= 0:
            raise ValueError(f"volume size must be positive, got {size_gib}")
        self.env = env
        self.id = f"vol-{env.next_id('vol'):08x}"
        self.size_gib = size_gib
        self.zone = zone
        self.state = VolumeState.AVAILABLE
        self.attached_to = None
        self.attach_history = []

    def _begin_attach(self, instance):
        if self.state is not VolumeState.AVAILABLE:
            raise InvalidOperation(
                f"{self.id}: cannot attach from state {self.state}")
        if instance.zone != self.zone:
            raise InvalidOperation(
                f"{self.id} is in {self.zone}, instance in {instance.zone}")
        self.state = VolumeState.ATTACHING
        self.attached_to = instance

    def _finish_attach(self):
        if self.state is not VolumeState.ATTACHING:
            raise InvalidOperation(
                f"{self.id}: attach completion from state {self.state}")
        self.state = VolumeState.IN_USE
        self.attached_to.volumes.append(self)
        self.attach_history.append((self.env.now, self.attached_to.id))

    def _begin_detach(self):
        if self.state is not VolumeState.IN_USE:
            raise InvalidOperation(
                f"{self.id}: cannot detach from state {self.state}")
        self.state = VolumeState.DETACHING

    def _finish_detach(self):
        if self.state is not VolumeState.DETACHING:
            raise InvalidOperation(
                f"{self.id}: detach completion from state {self.state}")
        if self in self.attached_to.volumes:
            self.attached_to.volumes.remove(self)
        self.attached_to = None
        self.state = VolumeState.AVAILABLE

    def _force_detach(self):
        """Detach immediately (host terminated under the volume)."""
        if self.attached_to is not None and self in self.attached_to.volumes:
            self.attached_to.volumes.remove(self)
        self.attached_to = None
        if self.state is not VolumeState.DELETED:
            self.state = VolumeState.AVAILABLE

    def delete(self):
        if self.state is VolumeState.IN_USE:
            raise InvalidOperation(f"{self.id} is attached; detach first")
        self.state = VolumeState.DELETED

    def __repr__(self):
        return f"<Volume {self.id} {self.size_gib}GiB {self.state.value}>"

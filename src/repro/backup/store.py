"""The checkpoint store: memory images held on a backup server.

The store guarantees the paper's "no risk of losing VM state" claim:
once a VM's image is committed, the state survives any host
termination — even if no destination server is available yet, "the
backup server stores it even if there is not a destination server
available to execute the nested VM".
"""

from dataclasses import dataclass


@dataclass(slots=True)
class ImageRecord:
    """One nested VM's memory image on the backup server."""

    vm_id: str
    image_bytes: float
    #: Bytes of the image that are current (committed checkpoints).
    committed_bytes: float = 0.0
    #: Dirty bytes known to be outstanding on the source host.
    outstanding_bytes: float = 0.0
    last_commit_at: float = None
    commits: int = 0
    #: ``(time, bytes)`` per seed and commit, oldest first.  A sequence,
    #: not always a list: images seeded together share one immutable
    #: seed history, and each gets its own list at its next entry.
    history: tuple = ()

    @property
    def is_complete(self):
        """Whether the stored image alone can reconstruct the VM."""
        return self.committed_bytes >= self.image_bytes and \
            self.outstanding_bytes == 0.0


def _append(record, entry):
    """Append to ``record.history``, unsharing a seed history first."""
    history = record.history
    if type(history) is tuple:
        history = record.history = list(history)
    history.append(entry)


class CheckpointStore:
    """Image bookkeeping for one backup server."""

    def __init__(self, env):
        self.env = env
        self._images = {}
        #: The latest one-entry seed history; immutable, so images
        #: seeded at the same clock reading (the same ``env.now``
        #: object) with the same size share it.
        self._seed_history = None

    def open_image(self, vm_id, image_bytes):
        """Begin storing a VM's image (initial full copy pending)."""
        if vm_id in self._images:
            raise ValueError(f"image for {vm_id} already open")
        record = ImageRecord(vm_id=vm_id, image_bytes=float(image_bytes))
        self._images[vm_id] = record
        return record

    def seed_full_image(self, vm_id):
        """Mark the initial full copy committed."""
        record = self._images[vm_id]
        record.committed_bytes = record.image_bytes
        record.outstanding_bytes = 0.0
        record.last_commit_at = self.env.now
        record.commits += 1
        shared = self._seed_history
        if shared is None or shared[0][0] is not self.env.now or \
                shared[0][1] != record.image_bytes:
            shared = self._seed_history = (
                (self.env.now, record.image_bytes),)
        if record.history:
            _append(record, shared[0])
        else:
            record.history = shared

    def mark_dirty(self, vm_id, dirty_bytes):
        """Account dirty state accumulating on the source host."""
        record = self._images[vm_id]
        record.outstanding_bytes = float(dirty_bytes)

    def commit(self, vm_id, flushed_bytes):
        """A checkpoint flush arrived; outstanding state shrinks."""
        record = self._images[vm_id]
        record.outstanding_bytes = max(
            record.outstanding_bytes - flushed_bytes, 0.0)
        record.last_commit_at = self.env.now
        record.commits += 1
        _append(record, (self.env.now, flushed_bytes))

    def commit_if_current(self, vm_id, image, flushed_bytes):
        """Commit ``flushed_bytes`` only if ``image`` is still open.

        Settled steady-flush rounds arrive late: a VM that released its
        backup since has no image here, or a fresh one, and the rounds
        flushed into the old image must not land in the new.
        """
        if self._images.get(vm_id) is image:
            self.commit(vm_id, flushed_bytes)

    def image(self, vm_id):
        try:
            return self._images[vm_id]
        except KeyError:
            raise KeyError(f"no image stored for {vm_id}") from None

    def close_image(self, vm_id):
        """Drop a VM's image (VM terminated or moved to another server)."""
        return self._images.pop(vm_id, None)

    def __contains__(self, vm_id):
        return vm_id in self._images

    def __len__(self):
        return len(self._images)

    def total_bytes(self):
        return sum(r.committed_bytes for r in self._images.values())

    def state_loss_events(self):
        """Images whose host died with uncommitted state.

        Non-empty only if a commit was interrupted — the invariant the
        bounded-time machinery exists to keep empty.
        """
        return [r for r in self._images.values()
                if r.outstanding_bytes > 0 and r.last_commit_at is None]

"""The backup-server resource model."""

from dataclasses import dataclass

from repro.sim.resources import Container, FairShareResource, fair_share_rates


class BackupUnavailable(RuntimeError):
    """Restore or commit work was sent to a failed backup server."""


@dataclass(frozen=True)
class BackupServerSpec:
    """Capacity model of one backup server (m3.xlarge by default).

    The write-path numbers reflect the paper's ext4 tuning (write-back
    journalling, ``noatime``, high ``dirty_ratio``): the page cache
    absorbs write bursts, so the sustained write path is close to the
    device limit.  The read-path numbers express the three regimes of
    Figure 8: tuned sequential reads (optimized full restore), untuned
    reads (unoptimized full restore), and random demand-paged reads
    whose aggregate throughput collapses under concurrency unless the
    ``fadvise`` hints are issued.

    Attributes
    ----------
    itype_name:
        Native type used for backup servers.
    hourly_price:
        On-demand price of the backup server ($0.28 for m3.xlarge).
    net_bps:
        NIC bandwidth (bytes/s).
    disk_write_bps:
        Sustained checkpoint-ingest bandwidth (bytes/s).
    seq_read_bps:
        Sequential image-read bandwidth with readahead hints.
    untuned_read_factor:
        Fraction of ``seq_read_bps`` achieved without the hints.
    rand_read_bps:
        Aggregate random-read bandwidth at concurrency 1 (page faults
        during lazy restore).
    rand_interference:
        Quadratic seek-interference coefficient: aggregate random
        throughput at concurrency n is ``rand_read_bps / (1 + c(n-1)^2)``.
    fadvise_rand_read_bps:
        Aggregate demand-paging bandwidth when the RANDOM ``fadvise``
        hint plus background prefetch is enabled (flat in n).
    max_checkpoint_vms:
        Assignment cap SpotCheck enforces per backup server ("assigns
        at most 35-40 VMs per backup server").
    page_cache_bytes:
        Page cache available to absorb write storms.
    """

    itype_name: str = "m3.xlarge"
    hourly_price: float = 0.28
    net_bps: float = 125e6
    disk_write_bps: float = 110e6
    seq_read_bps: float = 90e6
    untuned_read_factor: float = 0.55
    rand_read_bps: float = 45e6
    rand_interference: float = 0.02
    fadvise_rand_read_bps: float = 70e6
    max_checkpoint_vms: int = 40
    page_cache_bytes: float = 8 * 1024 ** 3

    def __post_init__(self):
        if self.net_bps <= 0 or self.disk_write_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.untuned_read_factor <= 1:
            raise ValueError("untuned_read_factor must lie in (0, 1]")
        if self.max_checkpoint_vms < 1:
            raise ValueError("max_checkpoint_vms must be at least 1")

    @property
    def write_path_bps(self):
        """Sustained checkpoint-ingest capacity (network or disk bound)."""
        return min(self.net_bps, self.disk_write_bps)

    def full_restore_aggregate_bps(self, optimized):
        """Aggregate sequential read throughput for full restores."""
        rate = self.seq_read_bps if optimized \
            else self.seq_read_bps * self.untuned_read_factor
        return min(rate, self.net_bps)

    def lazy_restore_aggregate_bps(self, concurrent, optimized):
        """Aggregate demand-paging throughput at ``concurrent`` restores."""
        if concurrent < 1:
            raise ValueError("concurrency must be at least 1")
        if optimized:
            rate = self.fadvise_rand_read_bps
        else:
            rate = self.rand_read_bps / (
                1.0 + self.rand_interference * (concurrent - 1) ** 2)
        return min(rate, self.net_bps)

    def amortized_cost_per_vm(self, vms):
        """Backup cost share per nested VM ($/hour)."""
        if vms < 1:
            raise ValueError("need at least one VM")
        return self.hourly_price / vms


class _RestoreToken:
    """Handle for one restore's stay on a server's read path.

    ``peak`` records the highest number of simultaneous restores the
    server saw at any point during this restore's lifetime — the
    concurrency the availability accounting attributes to it.
    """

    __slots__ = ("peak",)

    def __init__(self, concurrent_now):
        self.peak = concurrent_now


class _BackupIngest:
    """``FairShareLink``-compatible facade over a server's commit path.

    Checkpoint streams call ``transfer(size, rate_cap=...)``; each call
    becomes a commit flow on the server's shared datapath, so steady
    flushes contend with final commits and restores for real.
    """

    def __init__(self, server):
        self.server = server

    def transfer(self, size_bytes, rate_cap=None):
        return self.server.commit_flow(size_bytes, rate_cap=rate_cap)


class BackupServer:
    """One backup server: assigned checkpoint streams + restore load.

    Used analytically by the figure benches (utilization, degradation)
    and as a stateful entity by the controller (assignment bookkeeping,
    storm accounting).  All byte movement — checkpoint commits,
    skeleton transfers, full/lazy restore reads — runs as flows on one
    shared :class:`~repro.sim.resources.FairShareResource` whose two
    paths model the disk and the NIC, so overlapping storms and
    commit-vs-restore contention are simulated rather than approximated.
    """

    def __init__(self, env, spec=None):
        self.env = env
        self.spec = spec or BackupServerSpec()
        self.id = f"bak-{env.next_id('bak'):04d}"
        #: vm.id -> stream rate (bytes/s).
        self.streams = {}
        #: Restores in flight right now.
        self.active_restores = 0
        self._restore_tokens = []
        #: Disk occupancy for stored images.
        self.store_bytes = Container(env, capacity=float("inf"))
        self.created_at = env.now
        #: Set when the server dies (failure injection); a failed
        #: server accepts no assignments and serves no restores.
        self.failed_at = None
        #: The shared datapath.  Reads and writes meet on the "disk"
        #: path (whose aggregate depends on the traffic mix, see
        #: :meth:`_disk_capacity_bps`); everything also crosses the
        #: "nic" path, which caps any regime at the NIC rate.
        self.datapath = FairShareResource(
            env,
            {"disk": self._disk_capacity_bps, "nic": self.spec.net_bps},
            on_rebalance=self._observe_datapath)
        #: Link-compatible handle checkpoint streams flush through.
        self.ingest = _BackupIngest(self)

    @property
    def failed(self):
        return self.failed_at is not None

    def mark_failed(self):
        """The server (and the images it held) are gone."""
        if self.failed_at is None:
            self.failed_at = self.env.now

    def _require_alive(self):
        if self.failed:
            raise BackupUnavailable(
                f"{self.id} failed at t={self.failed_at:.1f}; "
                f"its images are gone")

    # -- checkpoint write path -------------------------------------------

    @property
    def assigned_vms(self):
        return len(self.streams)

    @property
    def has_capacity(self):
        return self.assigned_vms < self.spec.max_checkpoint_vms

    def assign_stream(self, vm_id, rate_bps):
        """Register a nested VM's checkpoint stream."""
        if self.failed:
            raise ValueError(f"{self.id} has failed")
        if vm_id in self.streams:
            raise ValueError(f"{vm_id} already assigned to {self.id}")
        self.streams[vm_id] = float(rate_bps)
        self._observe_write_path("backup.stream_assigned", vm_id)

    def release_stream(self, vm_id):
        if self.streams.pop(vm_id, None) is not None:
            self._observe_write_path("backup.stream_released", vm_id)

    def _observe_write_path(self, event_name, vm_id):
        """Publish the stream change and the resulting write pressure.

        A ``backup.throttled`` event additionally marks the moment
        aggregate checkpoint demand exceeds the write path (the
        post-knee regime of Figure 7) — the per-VM streams are being
        throttled below their requested rates from here on.
        """
        obs = getattr(self.env, "obs", None)
        if obs is None:
            return
        utilization = self.write_utilization()
        obs.emit(event_name, server=self.id, vm=vm_id,
                 assigned=self.assigned_vms, utilization=utilization)
        obs.metrics.gauge(
            "backup_write_utilization", server=self.id).set(utilization)
        obs.metrics.gauge(
            "backup_assigned_vms", server=self.id).set(self.assigned_vms)
        if utilization > 1.0 and event_name == "backup.stream_assigned":
            obs.emit("backup.throttled", server=self.id,
                     utilization=utilization,
                     overload=self.overload_fraction())
            obs.metrics.counter("backup_throttle_events_total",
                                server=self.id).inc()

    def write_utilization(self):
        """Aggregate stream demand / write-path capacity."""
        return sum(self.streams.values()) / self.spec.write_path_bps

    def overload_fraction(self):
        """Fraction of checkpoint demand the write path cannot absorb.

        Positive once aggregate streams exceed capacity; drives the
        post-knee performance drop of Figure 7.
        """
        util = self.write_utilization()
        return max(0.0, 1.0 - 1.0 / util) if util > 0 else 0.0

    def stream_fair_rates(self):
        """Granted rate per assigned stream under max-min fair sharing.

        What each VM's checkpoint stream would sustain if all assigned
        streams pushed at their demand simultaneously — the fair-share
        view of Figure 7's write path.  Below the knee every stream
        receives its demand; past it the grants flatten at the equal
        share.
        """
        vm_ids = list(self.streams)
        grants = fair_share_rates(
            [self.streams[vm_id] for vm_id in vm_ids],
            self.spec.write_path_bps)
        return dict(zip(vm_ids, grants))

    def write_throttle_fraction(self):
        """Fraction of aggregate stream demand denied by fair sharing.

        Cross-check for :meth:`overload_fraction`: both derive the same
        post-knee throttling, one from the utilization ratio and one
        from the water-filled grants.
        """
        demand = sum(self.streams.values())
        if demand <= 0:
            return 0.0
        granted = sum(self.stream_fair_rates().values())
        return max(0.0, 1.0 - granted / demand)

    # -- datapath flows ---------------------------------------------------

    def commit_flow(self, nbytes, rate_cap=None):
        """Write ``nbytes`` of checkpoint state; returns the done event.

        Used both for steady-state flushes (capped at the per-VM stream
        throttle) and for final commits (uncapped: the VM is suspended,
        so the commit may burst to whatever share the datapath grants —
        in a full 40-VM storm that share is exactly the worst-case
        ``commit_bandwidth_bps`` the time bound was provisioned for).
        """
        self._require_alive()
        return self.datapath.transfer(nbytes, paths=("disk", "nic"),
                                      rate_cap=rate_cap, kind="commit")

    def skeleton_flow(self, nbytes):
        """Transfer a lazy restore's skeleton state (network only)."""
        self._require_alive()
        return self.datapath.transfer(nbytes, paths=("nic",),
                                      kind="skeleton")

    def restore_read_flow(self, image_bytes, kind, optimized):
        """Read a VM image for restoration; returns the done event.

        The flow crosses the disk read path (whose aggregate follows
        the Figure 8 regime for ``kind``/``optimized``) and the NIC.
        """
        self._require_alive()
        if kind not in ("full", "lazy"):
            raise ValueError(f"unknown restore kind {kind!r}")
        tag = f"restore:{kind}:{'opt' if optimized else 'unopt'}"
        return self.datapath.transfer(image_bytes, paths=("disk", "nic"),
                                      kind=tag)

    def begin_restore(self):
        """Enter the restore path; returns a token for :meth:`end_restore`.

        Every live token's ``peak`` is raised to the new concurrency, so
        a restore that spans several overlapping storms reports the
        worst sharing it experienced.
        """
        self._require_alive()
        self.active_restores += 1
        token = _RestoreToken(self.active_restores)
        self._restore_tokens.append(token)
        for live in self._restore_tokens:
            live.peak = max(live.peak, self.active_restores)
        return token

    def end_restore(self, token):
        self.active_restores -= 1
        self._restore_tokens.remove(token)

    def _disk_capacity_bps(self, flows):
        """Aggregate disk throughput for the current mix of disk flows.

        Writes alone sustain ``disk_write_bps``; reads alone sustain
        the Figure 8 aggregate of their regime; a mix is bound by the
        slowest regime present (the head seeks between the journal and
        the image files hurt both sides).  The NIC cap is *not* applied
        here — the datapath's "nic" path carries it — so homogeneous
        batches reproduce the spec's ``min(regime, net)/n`` analytic
        shares exactly.
        """
        for flow in flows:
            if flow.kind != "commit":
                break
        else:
            # Commits alone: the hot steady-flush case needs no scan.
            return self.spec.disk_write_bps
        caps = []
        reads = [f for f in flows
                 if f.kind is not None and f.kind.startswith("restore:")]
        if len(reads) < len(flows):
            caps.append(self.spec.disk_write_bps)
        if reads:
            caps.append(self._read_aggregate_bps(reads))
        return min(caps) if caps else self.spec.disk_write_bps

    def _read_aggregate_bps(self, reads):
        spec = self.spec
        kinds = {f.kind for f in reads}
        caps = []
        if "restore:full:opt" in kinds:
            caps.append(spec.seq_read_bps)
        if "restore:full:unopt" in kinds:
            caps.append(spec.seq_read_bps * spec.untuned_read_factor)
        if "restore:lazy:opt" in kinds:
            caps.append(spec.fadvise_rand_read_bps)
        if "restore:lazy:unopt" in kinds:
            concurrent = len(reads)
            caps.append(spec.rand_read_bps / (
                1.0 + spec.rand_interference * (concurrent - 1) ** 2))
        return min(caps)

    def _observe_datapath(self, datapath):
        obs = getattr(self.env, "obs", None)
        if obs is None:
            return
        obs.metrics.counter("backup_datapath_rebalances_total",
                            server=self.id).inc()
        obs.metrics.gauge("backup_datapath_flows", server=self.id).set(
            datapath.flow_count())
        for path, stats in datapath.snapshot().items():
            utilization = (stats["rate_sum"] / stats["capacity"]
                           if stats["capacity"] > 0 else 0.0)
            obs.metrics.gauge("backup_datapath_utilization",
                              server=self.id, path=path).set(utilization)

    # -- restore read path -------------------------------------------------

    def per_restore_bps(self, kind, optimized, concurrent=None):
        """Per-restore bandwidth for ``concurrent`` simultaneous restores.

        ``kind`` is ``"full"`` or ``"lazy"``.  Analytic counterpart of
        the datapath's equal split; the DES path must reproduce it for
        homogeneous batches.
        """
        self._require_alive()
        n = self.active_restores if concurrent is None else concurrent
        n = max(n, 1)
        if kind == "full":
            aggregate = self.spec.full_restore_aggregate_bps(optimized)
        elif kind == "lazy":
            aggregate = self.spec.lazy_restore_aggregate_bps(n, optimized)
        else:
            raise ValueError(f"unknown restore kind {kind!r}")
        return aggregate / n

    def __repr__(self):
        return (f"<BackupServer {self.id} vms={self.assigned_vms}"
                f"/{self.spec.max_checkpoint_vms} "
                f"restores={self.active_restores}>")

"""The coordinator: customers, portfolio split, cross-market moves.

:class:`ShardedCell` owns everything a market must not: the fleet-wide
VM count and its apportionment across markets, the epoch clock, the
merged event history, and rebalancing decisions.  Markets are sorted
by key and indexed once; shard assignment is round-robin over that
index, so ``shards=1`` (everything inline in this process) and
``shards=N`` (fork + pipe workers) partition the *same* market list —
and because each market's simulation depends only on its own seed and
its own requests, and the mailbox merge is stamp-ordered, every shard
count replays one canonical run.  ``FleetResult.digest()`` is the
bit-identity witness the tests assert on.

Worker protocol: long-lived forked processes (shard state must survive
across epochs), one duplex pipe each, strict request/reply —
``ApplyCommand``/``RunCommand``/``FinalizeCommand``/``StopCommand`` in,
:class:`~repro.core.shard.messages.ShardReply` out.  A worker-side
exception is formatted into ``ShardReply.error`` rather than raised
(raising would hang the pipe) and re-raised here as
:class:`ShardWorkerError`.
"""

import hashlib
import json
import multiprocessing
import traceback
from dataclasses import asdict, dataclass

from repro.core.shard.mailbox import Mailbox
from repro.core.shard.market import MarketShard
from repro.core.shard.messages import (
    ApplyCommand,
    FinalizeCommand,
    ProvisionRequest,
    RunCommand,
    ShardReply,
    StopCommand,
)


class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback."""


def apportion(total, weights):
    """Largest-remainder split of ``total`` items over ``weights``.

    Deterministic: quotas are floored, leftovers go to the largest
    fractional remainders, ties broken by position.  Every returned
    count is >= 0 and the counts sum to ``total`` exactly.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be non-empty and non-negative")
    scale = sum(weights)
    if scale <= 0:
        raise ValueError("weights must sum to a positive value")
    quotas = [total * w / scale for w in weights]
    counts = [int(q) for q in quotas]
    leftovers = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


def _shard_worker(conn, config, assignments):
    """Worker main: build the shard, then serve commands until Stop."""
    try:
        shard = MarketShard(assignments, config)
        conn.send(ShardReply())  # ready handshake
    except BaseException:
        conn.send(ShardReply(error=traceback.format_exc()))
        return
    while True:
        command = conn.recv()
        if isinstance(command, StopCommand):
            return
        try:
            conn.send(shard.execute(command))
        except BaseException:
            conn.send(ShardReply(error=traceback.format_exc()))


class _InlineHost:
    """shards=1: the whole cell runs in the coordinator process."""

    def __init__(self, config, assignments):
        self.shard = MarketShard(assignments, config)

    def ready(self):
        pass

    def submit(self, command):
        self._reply = self.shard.execute(command)

    def collect(self):
        return self._reply

    def stop(self):
        pass


class _ProcessHost:
    """One forked worker; submit/collect split so shards overlap.

    Construction only forks: the worker builds its shard while the
    coordinator forks the next one, and :meth:`ready` waits for the
    build's handshake.
    """

    def __init__(self, config, assignments):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker, args=(child, config, assignments),
            daemon=True)
        self.process.start()
        child.close()

    def ready(self):
        self.collect()  # ready handshake

    def _check(self, reply):
        if reply.error is not None:
            self.stop()
            raise ShardWorkerError(reply.error)
        return reply

    def submit(self, command):
        self.conn.send(command)

    def collect(self):
        return self._check(self.conn.recv())

    def stop(self):
        try:
            if self.process.is_alive():
                self.conn.send(StopCommand())
            self.conn.close()
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)


@dataclass
class FleetResult:
    """Merged outcome of one sharded-cell run."""

    shards: int
    total_vms: int
    markets: list
    reports: list
    messages: list
    summary: dict

    def digest(self):
        """sha256 over the canonical JSON of everything observable.

        Identical digests across shard counts are the bit-identity
        proof: merged summary, the stamp-ordered message stream, and
        every per-market report reduce to the same bytes.
        """
        payload = {
            "summary": self.summary,
            "messages": [
                {"type": type(m).__name__, **asdict(m)}
                for m in self.messages],
            "reports": [asdict(r) for r in self.reports],
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ShardedCell:
    """A fleet cell partitioned over (type, zone) market shards."""

    def __init__(self, total_vms, markets, config, weights=None):
        if total_vms < 1:
            raise ValueError("total_vms must be at least 1")
        if not markets:
            raise ValueError("at least one market is required")
        keys = [spec.key for spec in markets]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate market keys in {keys}")
        #: Canonical market order: sorted by key, indexed once.  The
        #: index is the logical-clock tiebreaker and the request
        #: address — never a process id.
        self.markets = sorted(markets, key=lambda spec: spec.key)
        self.config = config
        self.total_vms = total_vms
        if weights is None:
            weights = [1.0] * len(self.markets)
        if len(weights) != len(self.markets):
            raise ValueError("one weight per market required")
        self.counts = apportion(total_vms, weights)
        self.mailbox = Mailbox()

    def _assignments(self, shards):
        """Round-robin market -> shard assignment by market index."""
        buckets = [[] for _ in range(shards)]
        for index, (spec, count) in enumerate(
                zip(self.markets, self.counts)):
            buckets[index % shards].append((index, spec, count))
        return [bucket for bucket in buckets if bucket]

    def run(self, shards=1, epochs=1, rebalance=None):
        """Execute the cell; returns the merged :class:`FleetResult`.

        ``epochs`` splits the horizon into equal message/rebalance
        rounds.  ``rebalance(epoch, batch, cell)`` (optional) maps the
        epoch's merged message batch to the next epoch's requests —
        park/migrate decisions live here, in the coordinator, where
        the full cross-market picture is.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        shards = min(shards, len(self.markets))
        assignments = self._assignments(shards)
        host_cls = _InlineHost if shards == 1 else _ProcessHost
        hosts = []
        try:
            # Fork every worker before waiting on any, so the shards
            # build in parallel; a failed handshake stops them all.
            for bucket in assignments:
                hosts.append(host_cls(self.config, bucket))
            for host in hosts:
                host.ready()
            market_host = {}
            for host, bucket in zip(hosts, assignments):
                for index, _spec, _count in bucket:
                    market_host[index] = host
            requests = [ProvisionRequest(market=index, count=count)
                        for index, count in enumerate(self.counts)
                        if count > 0]
            horizon = self.config.duration_s
            boundaries = [horizon * (e + 1) / epochs
                          for e in range(epochs)]
            for epoch, until in enumerate(boundaries):
                batch = self._round(hosts, market_host,
                                    ApplyCommand(tuple(requests)))
                # Acks answer migrate requests: reprovision the freed
                # VMs in their destination markets, same epoch.
                followups = [
                    ProvisionRequest(market=ack.dest_market,
                                     count=ack.released)
                    for ack in batch["acks"] if ack.released > 0]
                if followups:
                    self._round(hosts, market_host,
                                ApplyCommand(tuple(followups)))
                run_batch = self._broadcast(hosts, RunCommand(until))
                if rebalance is not None and epoch + 1 < epochs:
                    requests = list(rebalance(
                        epoch, run_batch["messages"], self) or ())
                else:
                    requests = []
            final = self._broadcast(hosts, FinalizeCommand())
            reports = sorted(final["reports"],
                             key=lambda report: report.market)
        finally:
            for host in hosts:
                host.stop()

        summary = self._merge_summaries(reports)
        return FleetResult(
            shards=shards, total_vms=self.total_vms,
            markets=[spec.key for spec in self.markets],
            reports=reports, messages=self.mailbox.messages,
            summary=summary)

    # -- command rounds -------------------------------------------------

    def _round(self, hosts, market_host, command):
        """Apply a command, routing per-market requests to their hosts."""
        per_host = {id(host): [] for host in hosts}
        for request in command.requests:
            host = market_host.get(request.market)
            if host is None:
                raise KeyError(f"unknown market index {request.market}")
            per_host[id(host)].append(request)
        for host in hosts:
            host.submit(ApplyCommand(tuple(per_host[id(host)])))
        return self._gather(hosts)

    def _broadcast(self, hosts, command):
        for host in hosts:
            host.submit(command)
        return self._gather(hosts)

    def _gather(self, hosts):
        """Collect replies in host order, then stamp-merge the streams.

        Collection order is irrelevant to the outcome — the mailbox
        re-sorts by stamp — but fixed host order keeps error
        attribution deterministic.
        """
        replies = [host.collect() for host in hosts]
        batch = self.mailbox.deliver(
            [reply.messages for reply in replies])
        acks = sorted((ack for reply in replies for ack in reply.acks),
                      key=lambda ack: ack.stamp)
        reports = [report for reply in replies for report in reply.reports]
        return {"messages": batch, "acks": acks, "reports": reports}

    # -- reduction ------------------------------------------------------

    def _merge_summaries(self, reports):
        """Reduce per-market aggregates in market-index order.

        Sums of raw seconds/dollars/counts first, ratios derived from
        the sums after — a fixed float reduction order, so the merged
        summary is identical at every shard count.
        """
        vm_seconds = downtime = degraded = cost = 0.0
        migrations = revocations = state_loss = backups = 0
        max_storm = 0
        breakdown = {}
        events = 0
        for report in reports:
            part = report.summary
            vm_seconds += part["vm_seconds"]
            downtime += part["downtime_s"]
            degraded += part["degraded_s"]
            cost += part["total_cost"]
            migrations += part["migrations"]
            revocations += part["revocation_events"]
            state_loss += part["state_loss_events"]
            backups += part["backup_servers"]
            max_storm = max(max_storm,
                            part["max_concurrent_revocation"])
            for key, dollars in part["cost_breakdown"].items():
                breakdown[key] = breakdown.get(key, 0.0) + dollars
            events += report.events_processed
        vm_hours = vm_seconds / 3600.0
        return {
            "vm_hours": vm_hours,
            "cost_per_vm_hour": cost / vm_hours if vm_hours else 0.0,
            "availability":
                1.0 - (downtime / vm_seconds if vm_seconds else 0.0),
            "unavailability_pct":
                100.0 * (downtime / vm_seconds if vm_seconds else 0.0),
            "degradation_pct":
                100.0 * (degraded / vm_seconds if vm_seconds else 0.0),
            "migrations": migrations,
            "revocation_events": revocations,
            "state_loss_events": state_loss,
            "cost_breakdown": {key: breakdown[key]
                               for key in sorted(breakdown)},
            "max_concurrent_revocation": max_storm,
            "backup_servers": backups,
            "events_processed": events,
            "markets": len(reports),
        }


__all__ = ["FleetResult", "ShardWorkerError", "ShardedCell", "apportion"]

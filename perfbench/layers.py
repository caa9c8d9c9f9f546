"""Which public functions the traced run wraps, layer by layer.

Layers are named by module.  Every wrapped function is synchronous, so
a span covers the work it names:

==================================  ===========================================
layer                               wrapped
==================================  ===========================================
``experiments.scenario``            ``PolicySimulation.run`` (stack build + run)
``sim``                             ``Environment.run`` (the event loop)
``core.controller.provision_fleet`` ``Environment.run`` driven to a
                                    ``provision_fleet`` process (fleet boot)
``sim.resources``                   ``FairShareResource.transfer``
``backup.server``                   ``BackupServer.commit_flow`` /
                                    ``skeleton_flow`` / ``restore_read_flow``
``virt.memory``                     ``MemoryModel.interval_for_dirty_bytes``
``cloud.latency``                   ``fit_latency_sampler``
``traces``                          ``TraceGenerator.generate_market``
``obs.metrics``                     counter/gauge/histogram updates
``obs.bus``                         ``EventBus.publish``
``obs.export``                      ``Observability.write_dir``
``core.shard``                      ``ShardedCell.run`` (coordinator)
``core.shard.mailbox``              ``Mailbox.deliver`` (stamp merge)
==================================  ===========================================

``cloud.api.run_instances`` is counted, not timed: it returns a
process whose work the ``sim`` span already covers.  The benchmark's
own ``setup`` and ``cell`` spans are the roots.
"""

import contextlib

from spans import Tracer

#: Every span layer, roots first; the per-layer metrics cover all of
#: them on every workload (zero where a layer does not run).
SPAN_LAYERS = (
    "setup",
    "cell",
    "experiments.scenario",
    "sim",
    "core.controller.provision_fleet",
    "sim.resources",
    "backup.server",
    "virt.memory",
    "cloud.latency",
    "traces",
    "obs.metrics",
    "obs.bus",
    "obs.export",
    "core.shard",
    "core.shard.mailbox",
)


def span(tracer, layer):
    """A span of ``layer`` on ``tracer``, or nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(layer)


def install(coordinator_only=False):
    """Wrap the layers' public functions; returns the live tracer.

    ``coordinator_only`` wraps just the shard coordinator: in a
    multi-worker run everything else executes in forked workers whose
    spans never reach this process.
    """
    from repro.core.shard import Mailbox, ShardedCell

    tracer = Tracer()
    tracer.wrap(ShardedCell, "run", "core.shard")
    tracer.wrap(Mailbox, "deliver", "core.shard.mailbox")
    if coordinator_only:
        return tracer

    from repro.backup.server import BackupServer
    from repro.cloud import latency
    from repro.cloud.api import CloudApi
    from repro.core.controller import SpotCheckController
    from repro.experiments.scenario import PolicySimulation
    from repro.obs import Counter, EventBus, Gauge, Histogram, Observability
    from repro.sim.kernel import Environment
    from repro.sim.resources import FairShareResource
    from repro.traces.generator import TraceGenerator
    from repro.virt.memory import MemoryModel

    #: Provision processes not yet driven, by id; holding them keeps
    #: their ids from being reused before ``Environment.run`` sees them.
    booting = {}
    provision_fleet = SpotCheckController.provision_fleet

    def marked_provision(self, *args, **kwargs):
        process = provision_fleet(self, *args, **kwargs)
        booting[id(process)] = process
        return process

    def run_layer(args, kwargs):
        until = kwargs.get("until", args[1] if len(args) > 1 else None)
        if booting.pop(id(until), None) is not None:
            return "core.controller.provision_fleet"
        return "sim"

    tracer.wrap(PolicySimulation, "run", "experiments.scenario")
    tracer.wrap(Environment, "run", run_layer)
    tracer.patch(SpotCheckController, "provision_fleet", marked_provision)
    tracer.wrap(FairShareResource, "transfer", "sim.resources")
    for name in ("commit_flow", "skeleton_flow", "restore_read_flow"):
        tracer.wrap(BackupServer, name, "backup.server")
    tracer.wrap(MemoryModel, "interval_for_dirty_bytes", "virt.memory")
    tracer.wrap(latency, "fit_latency_sampler", "cloud.latency")
    tracer.wrap(TraceGenerator, "generate_market", "traces")
    tracer.wrap(Histogram, "observe", "obs.metrics")
    tracer.wrap(Counter, "inc", "obs.metrics")
    for name in ("set", "inc", "dec"):
        tracer.wrap(Gauge, name, "obs.metrics")
    tracer.wrap(EventBus, "publish", "obs.bus")
    tracer.wrap(Observability, "write_dir", "obs.export")
    tracer.count(CloudApi, "run_instances", "cloud.api.run_instances")
    return tracer

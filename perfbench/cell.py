"""One measured sample of a workload, in a fresh interpreter.

    python3 perfbench/cell.py WORKLOAD SEED MODE

MODE is ``setup`` (set up, then stop before the first cell), ``plain``
(untraced run plus output check), ``traced`` (the same run with every
layer wrapped in spans) or ``traced-coord`` (``sharded-rebalance``
only: the multi-worker run with spans on the coordinator alone).
Prints one JSON line.  Host times are ``time.perf_counter`` readings,
which on Linux share one monotonic clock across processes, so the
parent can subtract its own spawn time; ``speed_scale`` converts them
to reference-speed seconds (see ``speed.py``).

Each sample runs in its own interpreter because the simulator keeps
process-global id counters and in-memory caches: a second run in the
same process is not the same work.
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import canon  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")


def expected_digests(workload, sim_seed):
    """Recorded ``{cell: digest}`` for this input; empty if none."""
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(sim_seed), {})


def check(expected, got):
    """Compare cell digests; returns ``(attempted, mismatched names)``.

    A cell missing on either side counts as attempted and mismatched: a
    cell that did not run failed, and one with no recorded digest could
    not be checked.
    """
    names = set(expected) | set(got)
    mismatched = sorted(name for name in names
                        if got.get(name) != expected.get(name))
    return len(names), mismatched


def run_workload(workload, seed, mode, clock=time.perf_counter):
    """Set up and run ``workload``; returns the sample dict."""
    setup, run = workloads.WORKLOADS[workload]
    sim_seed = workloads.sim_seed(workload, seed)
    tracer = None
    if mode in ("traced", "traced-coord"):
        tracer = layers.install(coordinator_only=(mode == "traced-coord"))
    sample = {"workload": workload, "sim_seed": sim_seed, "mode": mode}
    try:
        with layers.span(tracer, "setup"):
            ctx = setup(sim_seed)
        if mode == "setup":
            sample["started"] = clock()
            return sample
        kwargs = {}
        if workload == "chaos-sla":
            kwargs["export_dir"] = os.path.join(SCRATCH, f"obs-{os.getpid()}")
        if workload == "sharded-rebalance" and mode == "traced":
            # In-worker layers are only visible in-process; the shard
            # contract makes shards=1 digest-equal to any shard count.
            kwargs["shards"] = 1
        with layers.span(tracer, "cell"):
            out = run(ctx, clock, canon.digest, **kwargs)
        if "export_dir" in kwargs:
            shutil.rmtree(kwargs["export_dir"], ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(SCRATCH)  # only once no other sample uses it
    finally:
        if tracer is not None:
            tracer.unwrap()
    got = dict(out.cells)
    attempted, mismatched = check(expected_digests(workload, sim_seed), got)
    sample.update(
        attempted=attempted,
        failed=len(mismatched),
        mismatched=mismatched,
        digests=got,
        started=out.started,
        checked=clock(),
        run_s=out.run_s,
        boot_s=out.boot_s,
        vm_hours=out.vm_hours,
        counters=out.counters,
        peak_rss_kib=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      + sum(out.child_hwm_kib.values())),
    )
    if tracer is not None:
        sample["spans"] = {
            layer: {"calls": tracer.calls[layer],
                    "inclusive_s": tracer.inclusive_s[layer],
                    "self_s": tracer.self_s[layer]}
            for layer in tracer.layers()}
    return sample


MODES = ("setup", "plain", "traced", "traced-coord")


def main(argv):
    if len(argv) != 3 or argv[0] not in workloads.WORKLOADS \
            or argv[2] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    probe = SpeedProbe()
    probe.start()
    try:
        sample = run_workload(workload, seed, mode)
    finally:
        probe.stop()
    sample["speed_scale"] = probe.scale()
    sample["probes"] = probe.count
    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

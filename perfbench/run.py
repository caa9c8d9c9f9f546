"""SpotCheck simulator benchmark: host time end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measured sample is a fresh
interpreter (``perfbench/cell.py``), timed from the moment this script
spawns it, so set-up cost (imports, price archive, stack construction)
is what a user of ``repro`` pays on every invocation.

``--trace 0`` runs plain samples back to back while they fit in
``--seconds`` (sample i on input seed ``--seed`` + i), fills the rest
with set-up-only samples, and reports the median of each end-to-end
metric (``BENCHMARK.json``).  Times are
host seconds scaled to a reference host speed by a probe running in
the sample (``speed.py``); the raw median goes to standard error.

* ``wall_s``: interpreter start through the output check;
* ``setup_s``: interpreter start until the first cell-running call;
* ``boot_s``: host seconds from each cell's entry call until its whole
  fleet runs, summed over the workload's cells;
* ``vm_hours_per_s``: simulated nested-VM-hours per host second spent
  in the cell-running entry points;
* ``peak_rss_mb``: peak resident memory of the sample process plus the
  peak of every shard worker it forked.

``--trace 1`` runs one plain sample and one traced sample (for
``sharded-rebalance`` two: in-worker layers from the same cell at one
shard, coordinator layers from the two-worker run) and reports the
per-layer metrics.  Each cell's simulated outputs are digested and
compared against ``perfbench/digests.json``; a mismatch or an
exception fails that cell, and a traced digest must equal the plain
one.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from cell import expected_digests  # noqa: E402
from layers import SPAN_LAYERS  # noqa: E402
from workloads import WORKLOADS, sim_seed  # noqa: E402

#: A run ends within 180 s: no sample may outlive this many seconds
#: after the run started.
RUN_LIMIT_S = 170.0
#: Set-up measurements per run, at least (plain samples count too).
MIN_SETUPS = 3

END_TO_END = ("wall_s", "setup_s", "boot_s", "vm_hours_per_s",
              "peak_rss_mb")


class SampleFailed(RuntimeError):
    """A sample process crashed, timed out or printed no result."""


def spawn(workload, seed, mode, deadline):
    """Run one sample in a fresh interpreter; returns its dict + timing.

    ``deadline`` is the ``time.perf_counter()`` reading by which the
    sample must have ended; it is killed then.
    """
    command = [sys.executable, os.path.join(HERE, "cell.py"),
               workload, str(seed), mode]
    spawned = time.perf_counter()
    # Own process group, so a timeout also stops forked shard workers.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"{mode} sample timed out") from exc
    ended = time.perf_counter()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        raise SampleFailed(f"{mode} sample exited {proc.returncode}")
    sample = json.loads(lines[-1])
    sample["spawned"] = spawned
    sample["ended"] = ended
    sample["setup_s"] = sample["started"] - spawned
    return sample


def expected_cells(workload, seed):
    """Cells a sample attempts: each one fails when the sample crashes."""
    return max(len(expected_digests(workload, sim_seed(workload, seed))), 1)


def end_to_end(sample):
    """A plain sample's end-to-end metrics, in reference-speed seconds."""
    scale = sample["speed_scale"]
    return {
        "wall_s": (sample["checked"] - sample["spawned"]) * scale,
        "setup_s": sample["setup_s"] * scale,
        "boot_s": sample["boot_s"] * scale,
        "vm_hours_per_s": sample["vm_hours"] / (sample["run_s"] * scale),
        "peak_rss_mb": sample["peak_rss_kib"] / 1024.0,
    }


def measure(workload, seed, seconds):
    """Trace-off run: median end-to-end metrics over fresh samples."""
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    samples, setups = [], []
    attempted = failed = 0
    last = 0.0
    while not samples or time.perf_counter() - begin + last <= seconds:
        # Sample i runs input seed + i: a run's median spans several of
        # the workload's recorded inputs, so it varies less with --seed.
        sample_seed = seed + len(samples)
        try:
            sample = spawn(workload, sample_seed, "plain", deadline)
        except SampleFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            attempted += expected_cells(workload, sample_seed)
            failed += expected_cells(workload, sample_seed)
            break
        attempted += sample["attempted"]
        failed += sample["failed"]
        samples.append(sample)
        setups.append(sample["setup_s"] * sample["speed_scale"])
        last = sample["ended"] - sample["spawned"]
    if not samples:
        return attempted, failed, {}
    last = 0.0
    while len(setups) < MIN_SETUPS or (
            time.perf_counter() - begin + last <= seconds):
        try:
            sample = spawn(workload, seed + len(setups), "setup", deadline)
        except SampleFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            break
        setups.append(sample["setup_s"] * sample["speed_scale"])
        last = sample["ended"] - sample["spawned"]
    per_sample = [end_to_end(sample) for sample in samples]
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in END_TO_END}
    metrics["setup_s"] = statistics.median(setups)
    raw = statistics.median(s["checked"] - s["spawned"] for s in samples)
    speed = statistics.median(s["speed_scale"] for s in samples)
    print(f"perfbench: {workload} seed {seed}: {len(samples)} samples, "
          f"{len(setups)} set-ups, raw wall {raw:.3f} s, speed scale "
          f"{speed:.3f}", file=sys.stderr)
    return attempted, failed, metrics


def layer_metrics(plain, traced, coord=None):
    """Per-layer metrics from a traced sample (and coordinator sample)."""
    counters = traced["counters"]
    spans = _scaled_spans(traced)
    if coord is not None:
        coord_spans = _scaled_spans(coord)
        for layer in ("core.shard", "core.shard.mailbox"):
            spans[layer] = coord_spans.get(layer, spans.get(layer))
        counters.update({k: v for k, v in coord["counters"].items()
                         if k.startswith("core.shard")})
    else:
        coord = traced
    marks = [t * coord["speed_scale"]
             for t in counters.get("core.shard.epoch_marks", [])]

    def span(layer, key):
        return spans.get(layer, {}).get(key, 0)

    total = span("setup", "inclusive_s") + span("cell", "inclusive_s")
    events = counters.get("sim.events", 0)
    flows = counters.get("virt.migration.flush_flows", 0)
    points = counters.get("cloud.spot_market.points", 0)
    metrics = {
        "sim.events": events,
        "sim.events_per_vm_hour": events / traced["vm_hours"],
        "sim.self_s": span("sim", "self_s"),
        "sim.resources.transfer_calls": span("sim.resources", "calls"),
        "sim.resources.transfer_s": span("sim.resources", "inclusive_s"),
        "virt.migration.flush_flows": flows,
        "virt.migration.cohorts": counters.get("virt.migration.cohorts", 0),
        "virt.migration.events_per_flush_round":
            events / flows if flows else 0.0,
        "virt.memory.interval_calls": span("virt.memory", "calls"),
        "virt.memory.interval_s": span("virt.memory", "inclusive_s"),
        "cloud.latency.fit_calls": span("cloud.latency", "calls"),
        "cloud.latency.fit_s": span("cloud.latency", "inclusive_s"),
        "cloud.spot_market.points": points,
        "cloud.spot_market.delivered":
            counters.get("cloud.spot_market.delivered", 0),
        "cloud.spot_market.delivered_fraction":
            counters.get("cloud.spot_market.delivered", 0) / points
            if points else 0.0,
        "traces.generate_s": span("traces", "inclusive_s"),
        "core.controller.provision_fleet_s":
            span("core.controller.provision_fleet", "inclusive_s"),
        "cloud.api.run_instances_calls":
            span("cloud.api.run_instances", "calls"),
        "core.migrations": counters.get("core.migrations", 0),
        "backup.server.transfer_calls": span("backup.server", "calls"),
        "backup.server.transfer_s": span("backup.server", "inclusive_s"),
        "core.shard.epoch_s":
            marks[-1] / counters["core.shard.epochs"] if marks else 0.0,
        "core.shard.messages": counters.get("core.shard.messages", 0),
        "traffic.engine.wakes": counters.get("traffic.engine.wakes", 0),
        "traffic.engine.segments":
            counters.get("traffic.engine.segments", 0),
        "obs.metrics.observe_calls": span("obs.metrics", "calls"),
        "obs.metrics.observe_s": span("obs.metrics", "inclusive_s"),
        "obs.export_s":
            counters.get("obs.export_s", 0.0) * traced["speed_scale"],
        "obs.export_bytes": counters.get("obs.export_bytes", 0),
        "faults.injected": counters.get("faults.injected", 0),
        "faults.retries": counters.get("faults.retries", 0),
        "trace.overhead_frac":
            end_to_end(coord)["wall_s"] / end_to_end(plain)["wall_s"] - 1.0,
    }
    for layer in SPAN_LAYERS:
        self_s = span(layer, "self_s")
        metrics[f"trace.self_s.{layer}"] = self_s
        metrics[f"trace.share.{layer}"] = self_s / total if total else 0.0
    return metrics


def _scaled_spans(sample):
    """A traced sample's spans with times in reference-speed seconds."""
    scale = sample["speed_scale"]
    return {layer: {"calls": span["calls"],
                    "inclusive_s": span["inclusive_s"] * scale,
                    "self_s": span["self_s"] * scale}
            for layer, span in sample["spans"].items()}


def trace(workload, seed):
    """Trace-on run: per-layer metrics, digests checked against plain."""
    modes = ["plain", "traced"]
    if workload == "sharded-rebalance":
        modes.append("traced-coord")
    attempted = failed = 0
    samples = {}
    deadline = time.perf_counter() + RUN_LIMIT_S
    for mode in modes:
        try:
            samples[mode] = spawn(workload, seed, mode, deadline)
        except SampleFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            attempted += expected_cells(workload, seed)
            failed += expected_cells(workload, seed)
            continue
        sample = samples[mode]
        attempted += sample["attempted"]
        failed += sample["failed"]
        if mode != "plain" and "plain" in samples:
            attempted += 1
            if sample["digests"] != samples["plain"]["digests"]:
                print(f"perfbench: {mode} digest differs from plain",
                      file=sys.stderr)
                failed += 1
    if len(samples) != len(modes):
        return attempted, failed, {}
    return attempted, failed, layer_metrics(
        samples["plain"], samples["traced"], samples.get("traced-coord"))


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no simulator source under src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    unit_of = units()
    if args.trace:
        attempted, failed, values = trace(args.workload, args.seed)
    else:
        attempted, failed, values = measure(args.workload, args.seed,
                                            args.seconds)
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": max(attempted, 1),
        "failed": failed if values else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

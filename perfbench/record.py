"""Record the expected cell digests every benchmark run is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload once per simulator seed in ``workloads.SIM_SEEDS``
(a fresh interpreter each, untraced) and rewrites those entries of
``perfbench/digests.json``.  Re-record only when a change to the
simulator is meant to change its outputs, and say so in the change.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import RUN_LIMIT_S, spawn  # noqa: E402
from workloads import SIM_SEEDS  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def main(names):
    for workload in names or sorted(SIM_SEEDS):
        entry = {}
        for index, sim_seed in enumerate(SIM_SEEDS[workload]):
            sample = spawn(workload, index, "plain",
                           time.perf_counter() + RUN_LIMIT_S)
            if sample["sim_seed"] != sim_seed:
                raise RuntimeError(f"seed {index} ran sim seed "
                                   f"{sample['sim_seed']}, not {sim_seed}")
            entry[str(sim_seed)] = sample["digests"]
            counters = {k: v for k, v in sample["counters"].items()
                        if not isinstance(v, list)}
            print(f"{workload} seed {sim_seed}: "
                  f"{len(sample['digests'])} cells {counters}",
                  file=sys.stderr)
        with open(DIGESTS) as handle:
            recorded = json.load(handle)
        recorded[workload] = entry
        with open(DIGESTS, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

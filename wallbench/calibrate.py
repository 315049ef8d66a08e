"""Re-derive the calibration in ``config.json`` on the machine at hand.

Usage, from the repository root::

    python3 wallbench/calibrate.py            # capacity + suggested longdoc rate
    python3 wallbench/calibrate.py --digests  # canary input digests only

Capacity is measured by serving 30 longdoc requests one at a time, back
to back, on a warmed default engine: ``capacity = requests / wall seconds``.
The suggested offered rate is 60% of capacity.  The
canary digests pin the input generators: ``run.py`` refuses to call a run
correct when the inputs for the canary seed no longer hash the same.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from wallbench.run import _import_stack, load_config, set_up_in_process  # noqa: E402

REQUESTS = 30
LOAD_FACTOR = 0.6
SEED = 12345


def measure_capacity(config: dict) -> dict:
    from wallbench.inputs import build_inputs

    cfg = config["workloads"]["longdoc"]
    seconds = REQUESTS / float(cfg["rate_rps"]) + 1
    jobs = build_inputs("longdoc", SEED, seconds, config).jobs[:REQUESTS]
    stack = set_up_in_process(config, sorted(cfg["backend_mix"]))
    t0 = time.perf_counter()
    per_backend: dict[str, list[float]] = {}
    for job in jobs:
        t = time.perf_counter()
        stack.engine.run(job.to_request(), pop=True)
        per_backend.setdefault(job.backend, []).append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    return {
        "requests": len(jobs),
        "wall_s": wall,
        "capacity_rps": len(jobs) / wall,
        "mean_service_s": {k: sum(v) / len(v) for k, v in sorted(per_backend.items())},
    }


def canary_digests(config: dict) -> dict:
    from wallbench.inputs import build_inputs

    canary = config["canary"]
    return {
        name: build_inputs(name, canary["seed"], canary["seconds"], config).digest()
        for name in config["workloads"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args()
    _import_stack()
    config = load_config()
    out = {"canary_digests": canary_digests(config)}
    if not args.digests:
        capacity = measure_capacity(config)
        capacity["suggested_rate_rps"] = LOAD_FACTOR * capacity["capacity_rps"]
        out["capacity"] = capacity
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

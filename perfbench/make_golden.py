"""Regenerate the golden digests from the library as it is now.

    PYTHONPATH=src python3 perfbench/make_golden.py [workload ...]

Runs the warm-up and the first rounds of each workload for the golden
seed, requires every invariant check to pass, and writes
``perfbench/golden/<workload>.json``: digests of ops whose input does
not depend on the seed under ``fixed``, the others under ``seeded``.
Only regenerate when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads
from worker import GOLDEN_DIR, OpRunner

GOLDEN_SEED = 0
# Op keys whose input does not depend on the seed: their golden digests
# apply to every seed, the others only to the golden file's seed.
FIXED_PREFIXES = ("catalogue:", "l2-", "scan:", "plane:slow")
# Rounds covered: more than one run at the benchmark's run length makes.
GOLDEN_ROUNDS = {"period-map": 64, "lattice-census": 2, "line-configs": 25, "cli-mix": 1}


def make(name):
    extra = {}
    workdir = os.path.join(os.getcwd(), ".perfbench_tmp", f"golden-{os.getpid()}")
    if name == "cli-mix":
        os.makedirs(workdir, exist_ok=True)
        extra = {"workdir": workdir, "env": dict(os.environ)}
    try:
        wl = workloads.make(name, GOLDEN_SEED, **extra)
        record = {}
        runner = OpRunner(record=record)
        runner.run_ops(wl.warm_up_ops())
        for r in range(GOLDEN_ROUNDS[name]):
            runner.run_ops(wl.round_ops(r))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.failed:
        raise SystemExit(f"{name}: {runner.failed} ops failed: {runner.failures}")
    fixed = {k: v for k, v in record.items() if k.startswith(FIXED_PREFIXES)}
    seeded = {k: v for k, v in record.items() if k not in fixed}
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": GOLDEN_SEED, "fixed": fixed, "seeded": seeded}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {len(record)} digests ({len(fixed)} fixed) -> {path}")


if __name__ == "__main__":
    # cli-mix is no timed workload; its first round is the traced CLI probe
    for name in sys.argv[1:] or workloads.WORKLOADS + (workloads.CliMix.name,):
        make(name)

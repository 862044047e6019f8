"""Self-test of the benchmark, at the smallest sizes.

    python3 perfbench/selftest.py      (from the root of a checkout)

1. Every workload, with ``--trace 0`` and ``--trace 1``, prints a last
   line with exactly the result keys, every metric that BENCHMARK.json
   names for that mode (no other) with its unit, and no failed op.
2. Corrupting one golden digest makes the run report a failed op, a
   nonzero error rate and ``correct: false``.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([*RUN, *argv], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def smoke(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace), "--tiny")
            expect(code == 0 and lines, f"{workload} trace {trace} exited {code}: {err[-2000:]}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {json.loads(lines[-2])['failures']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                   f"units {[n for n in want if n in got and got[n] != want[n]]}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{workload}: non-numeric metric value")
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def corrupted_golden(tmp):
    golden = os.path.join(tmp, "golden")
    shutil.copytree(os.path.join(HERE, "golden"), golden)
    path = os.path.join(golden, "period-map.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    key = "period_map:0:1"  # round 0, kappa 1: the first timed op
    data["seeded"][key] = "0" * 16 if data["seeded"][key] != "0" * 16 else "1" * 16
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, lines, err = bench("--workload", "period-map", "--seed", "0", "--seconds", "1",
                             "--trace", "0", "--tiny", "--golden-dir", golden)
    expect(code == 0, f"corrupted-golden run exited {code}: {err[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(result["failed"] >= 1 and not result["correct"] and details["error_rate"] > 0,
           f"a corrupted golden digest was not detected: {result}")
    print(f"ok  corrupted golden digest: failed {result['failed']}, error_rate {details['error_rate']:.3f}")


def stripped_directory(tmp):
    stripped = os.path.join(tmp, "stripped")
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _err = bench("--workload", "period-map", "--seed", "0", "--seconds", "1",
                              "--trace", "0", cwd=stripped)
    expect(code != 0 and not lines, f"stripped directory: exit {code}, output {lines}")
    print(f"ok  stripped directory: exit {code}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        smoke(spec)
        corrupted_golden(tmp)
        stripped_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

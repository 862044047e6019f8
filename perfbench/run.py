"""latconf benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload period-map --seed 1 --seconds 30 --trace 0

The program is built from ``src`` (byte-compiled once, outside every
measurement) and each workload runs in a fresh single-threaded process
(``worker.py``).  With ``--trace 0`` the end-to-end metrics are printed;
op timings are scaled to the machine's nominal speed (``speed.py``), and
set-up time is the median over five fresh processes.  With
``--trace 1`` the per-layer metrics of a traced pass are printed.  The
last line of standard output is the result object; the line before it
holds the details (op counts, error rate, failures, environment), which
are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the names of workloads.WORKLOADS; this process does not import latconf
WORKLOADS = ("period-map", "lattice-census", "line-configs")
SETUPS = 5  # set-up is measured in this many fresh processes per run
RUN_LIMIT_S = 170  # every process of a run ends within this budget
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def environment(root):
    """Where the numbers came from."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy metadata missing: report it as unknown
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "latconf", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def spawn_worker(args, env, deadline, workdir, setup_only=False):
    """Run worker.py to completion and return its result object."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--golden-dir", args.golden_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker exceeded the {RUN_LIMIT_S} s budget")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, root):
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    # build: byte-compile the package, so no run pays for compilation
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "latconf")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn_worker(args, env, deadline, workdir, setup_only=True))
        worker = spawn_worker(args, env, deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    attempted = worker["attempted"] + sum(s["attempted"] for s in setups)
    failed = worker["failed"] + sum(s["failed"] for s in setups)
    metrics = worker["metrics"]
    setup_times = [s["setup_s"] for s in setups] + [worker["setup_s"]]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    failures = worker["failures"] + [f for s in setups for f in s["failures"]]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "error_rate": failed / attempted, "rejects": worker["rejects"], "setup_times_s": setup_times,
        "failures": failures[:10], "environment": environment(root),
    }
    details.update({k: v for k, v in worker.items() if k not in ("metrics", "failures", "setup_s")})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="one smallest round (self-test only)")
    parser.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latconf", "__init__.py")):
        print("perfbench: run from the root of a latconf checkout (src/latconf not found)", file=sys.stderr)
        return 2
    try:
        details, result = measure(args, root)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

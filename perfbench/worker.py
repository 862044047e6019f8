"""One workload process: set up, run the timed phase, check every op.

``run.py`` starts this script in a fresh single-threaded process with
``src`` on ``PYTHONPATH``; it prints one JSON line with its results.
With ``--setup-only`` it stops after set-up and reports only the set-up
time, which ``run.py`` uses to take the median of several set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# The six slowest registry checks at the commit that defined the
# benchmark; each gets a verify.<id>.s metric in the traced run.
SLOW_CHECKS = (
    "target-dim-4", "isotropic-orbits", "smoothness-paths",
    "lattice-subgroup-stable", "drop-line-paths", "cremona-involution",
)
TINY_CHECKS = ("disc-form-d6", "verify-determinism")

# Passes over the timed ops (see timed_phase).
PASSES = 2

# Rounds in one traced pass (each pass runs them untraced, then traced).
TRACE_ROUNDS = {"period-map": 4, "lattice-census": 1, "line-configs": 2}
# The traced run that also profiles the verify registry (most of which
# is period-map work), and the one that also measures the CLI layer.
REGISTRY_WORKLOAD = "period-map"
CLI_PROBE_WORKLOAD = "line-configs"


def digest(canonical):
    """First 16 hex digits of the SHA-256 of the canonical JSON output."""
    import hashlib

    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Golden:
    """Per-op digests of the golden outputs of one workload."""

    def __init__(self, golden_dir, workload, seed):
        path = os.path.join(golden_dir, f"{workload}.json")
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.fixed = data["fixed"]
        self.seeded = data["seeded"] if data["seed"] == seed else {}

    def expected(self, key):
        return self.fixed.get(key) or self.seeded.get(key)


class OpRunner:
    """Runs ops, times them, checks outputs and counts failures."""

    def __init__(self, golden=None, record=None):
        self.golden = golden
        self.record = record  # key -> digest, when writing golden files
        self.attempted = 0
        self.failed = 0
        self.rejects = 0
        self.failures = []
        self.tracer = None

    def run_ops(self, ops, samples=None):
        """Run and check each op in turn; return the latency of each.

        With a ``samples`` list, a reference sample (``speed.sample()``)
        is appended to it just before each op."""
        latencies = []
        for op in ops:
            if samples is not None:
                samples.append(speed.sample())
            start = perf_counter()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                raw, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.active = False  # checks are not part of the trace
            problem = error or self._check(op, raw)
            if self.tracer is not None:
                self.tracer.active = True
            if problem:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{op.key}: {problem}")
        return latencies

    def _check(self, op, raw):
        try:
            canonical, problem = op.check(raw)
            if op.reject is not None and op.reject(raw):
                self.rejects += 1
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        found = digest(canonical)
        if self.record is not None:
            self.record[op.key] = found
        expected = self.golden.expected(op.key) if self.golden else None
        if problem is None and expected is not None and found != expected:
            problem = f"output digest {found} differs from golden {expected}"
        return problem


def percentile_ms(values, pct):
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1000


def by_kind(ops, latencies):
    """Op count and median latency (ms) of each op kind."""
    groups = {}
    for op, latency in zip(ops, latencies):
        groups.setdefault(op.key.split(":", 1)[0], []).append(latency)
    return {k: [len(v), statistics.median(v) * 1000] for k, v in sorted(groups.items())}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB


def timed_phase(wl, runner, seconds, min_ops, max_rounds):
    """Run the ops of whole rounds ``PASSES`` times.

    The first pass runs rounds until the next one would end after
    ``seconds / PASSES`` and at least ``min_ops`` ops have run; the
    other passes repeat those ops with the same inputs.  Each op's
    latency is its fastest pass, after scaling to the nominal speed
    (``speed.py``): scaling removes the machine's slow drift, the
    fastest pass the bursts of contention that hit single ops.  Returns
    the ops, their latencies, the wall times of the first pass, the
    rounds and the wall time of the phase."""
    start = perf_counter()
    ops, first, samples = [], [], []
    rounds = 0
    while True:
        round_start = perf_counter()
        batch = wl.round_ops(rounds)
        first += runner.run_ops(batch, samples)
        ops += batch
        rounds += 1
        now = perf_counter()
        if max_rounds and rounds >= max_rounds:
            break
        if len(ops) >= min_ops and (now - start) + (now - round_start) > seconds / PASSES:
            break
    samples.append(speed.sample())
    passes = [speed.scale(first, samples)]
    for _ in range(PASSES - 1):
        samples = []
        wall = runner.run_ops(ops, samples)
        samples.append(speed.sample())
        passes.append(speed.scale(wall, samples))
    return ops, [min(times) for times in zip(*passes)], first, rounds, perf_counter() - start


def run_subprocess_s(argv, env):
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def cli_probes(args, env, runner):
    """Split a CLI invocation into interpreter start, import and command.

    The invocations are one checked round of the fixed CLI mix
    (``workloads.CliMix``); its ops count towards ``runner``'s totals.
    Each is preceded by its two probes, ``python -c pass`` and
    ``python -c "import latconf.cli"``, so that all three see the same
    machine speed.
    """
    import workloads

    mix = workloads.CliMix(args.seed, workdir=args.workdir, env=env)
    cli_runner = OpRunner(Golden(args.golden_dir, mix.name, args.seed))
    cli_runner.run_ops(mix.warm_up_ops())
    python = sys.executable
    interpreter, imported, invocation = [], [], []
    for op in mix.round_ops(0):
        interpreter.append(run_subprocess_s([python, "-c", "pass"], env))
        imported.append(run_subprocess_s([python, "-c", "import latconf.cli"], env))
        invocation += cli_runner.run_ops([op])
    runner.attempted += cli_runner.attempted
    runner.failed += cli_runner.failed
    runner.failures += cli_runner.failures
    interpreter, imported = statistics.median(interpreter), statistics.median(imported)
    return {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imported - interpreter, "s"),
        "cli.command_s": (statistics.median(invocation) - imported, "s"),
    }


def registry_profile(seed, tiny, runner):
    """Time every registry check with ``run_check(id, seed)``."""
    from latconf import verify

    times = {}
    for cid in verify.registry_ids():
        if tiny and cid not in TINY_CHECKS:
            continue
        start = perf_counter()
        check = verify.run_check(cid, seed)
        times[cid] = perf_counter() - start
        runner.attempted += 1
        if check.status != "Pass":
            runner.failed += 1
            runner.failures.append(f"verify {cid}: {check.status}")
    metrics = {"verify.total_s": (sum(times.values()), "s")}
    for cid in SLOW_CHECKS:
        metrics[f"verify.{cid}.s"] = (times.get(cid, 0.0), "s")
    return metrics, times


def traced_phase(wl, runner, args, child_env):
    """Run each trace round untraced, then traced; per-layer metrics.

    Alternating the two passes round by round keeps slow drift in the
    machine's speed out of the overhead ratio."""
    from tracing import Tracer

    rounds = 1 if args.tiny else TRACE_ROUNDS[args.workload]
    tracer = Tracer()
    untraced = traced = 0.0
    for r in range(rounds):
        untraced += sum(runner.run_ops(wl.round_ops(r)))
        tracer.install()
        runner.tracer = tracer
        try:
            latencies = runner.run_ops(wl.round_ops(r))
        finally:
            runner.tracer = None
            tracer.uninstall()
        traced += sum(latencies)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    if args.workload == CLI_PROBE_WORKLOAD:
        metrics.update(cli_probes(args, child_env, runner))
    else:
        metrics.update({f"cli.{k}_s": (0.0, "s") for k in ("interpreter", "import", "command")})
    registry = {}
    if args.workload == REGISTRY_WORKLOAD:
        registry_metrics, registry = registry_profile(args.seed, args.tiny, runner)
        metrics.update(registry_metrics)
    else:
        metrics["verify.total_s"] = (0.0, "s")
        metrics.update({f"verify.{cid}.s": (0.0, "s") for cid in SLOW_CHECKS})
    return metrics, {"traced_s": traced, "untraced_s": untraced, "rounds": rounds,
                     "registry_s": registry}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smallest rounds, for the self-test")
    parser.add_argument("--golden-dir", default=GOLDEN_DIR)
    parser.add_argument("--workdir", required=True, help="directory for CLI input files")
    args = parser.parse_args(argv)

    import workloads  # imports latconf: part of set-up

    child_env = dict(os.environ)
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    runner = OpRunner(Golden(args.golden_dir, args.workload, args.seed))
    runner.run_ops(wl.warm_up_ops())
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            metrics, detail = traced_phase(wl, runner, args, child_env)
            out.update(detail)
        else:
            min_ops = 1 if args.tiny else workloads.MIN_OPS
            ops, lat, raw, rounds, wall = timed_phase(wl, runner, args.seconds, min_ops, 1 if args.tiny else 0)
            metrics = {
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (percentile_ms(lat, 50), "ms"),
                "op_p90_ms": (percentile_ms(lat, 90), "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            unscaled = {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": percentile_ms(raw, 50),
                        "op_p90_ms": percentile_ms(raw, 90), "busy_s": sum(raw)}
            out.update({"rounds": rounds, "passes": PASSES, "timed_ops": len(lat), "busy_s": sum(lat),
                        "wall_s": wall, "by_kind": by_kind(ops, lat), "first_pass_unscaled": unscaled})
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out.update({"attempted": runner.attempted, "failed": runner.failed,
                "rejects": runner.rejects, "failures": runner.failures})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

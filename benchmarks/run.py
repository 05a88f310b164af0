"""Benchmark of the ``umbral`` package: one seeded workload per run.

    python3 benchmarks/run.py --workload verify-all --seed 42 --seconds 55 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and from nowhere else.  The run

1. sets up (a fresh import of ``umbral`` plus the generation of the
   workload's operations from the seed); with ``--trace 0`` it sets up
   ``SETUP_REPEATS`` times in all, spread over the run, and reports the
   median as ``setup_s``;
2. with ``--trace 0``, runs the operations in order, then keeps cycling
   through the list while the next operation, judged by its last time,
   should end within ``--seconds``.  An operation's time is its best over
   the cycles;
   with ``--trace 1``, runs each operation once untraced and then once
   under the tracer, and reports the per-layer metrics;
3. checks every distinct output against an independent route through the
   library, outside the timed region (see ``workloads.check``).

Report lines go to standard output; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, traced_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15

# inclusive time is reported for the functions the open optimisations target
INCLUSIVE = ("rationals.binomial", "umbra.dot_scalar", "sheffer.umbral_compose", "series.revert", "umbra.inverse_umbra")
GROWTH = (
    "series.revert",
    "umbra.k_umbra",
    "umbra.dot_scalar",
    "sheffer.riordan_array",
    "families.master_polynomial",
    "polynomials.Polynomial.mul",
)
# the suites of umbral.verify at the time the metric names were fixed
SUITES = ("abel", "lif", "duality", "sheffer", "riordan-group", "families")


def set_up(workload: str, seed: int):
    """Import ``umbral`` afresh from ``src/`` and generate the operations."""
    for key in [k for k in sys.modules if k == "umbral" or k.startswith("umbral.")]:
        del sys.modules[key]
    start = time.perf_counter()
    import umbral.cli  # noqa: F401  (the CLI imports every other module)

    ops = workloads.WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - start
    if Path(sys.modules["umbral"].__file__).resolve().parent != SRC / "umbral":
        raise ImportError(f"umbral was not imported from {SRC}")
    return ops, elapsed


class Run:
    """Samples and distinct outputs of every operation of one run."""

    def __init__(self, ops, seed: int):
        self.ops = ops
        self.seed = seed
        self.samples = [[] for _ in ops]
        # (exit code, stdout) -> (outcome, times seen), in order of first sight
        self.outputs = [{} for _ in ops]
        # calls are kept per order only when the operations differ in order
        self.phased = len({op.order for op in ops}) > 1

    def run_op(self, index: int) -> float:
        op = self.ops[index]
        start = time.perf_counter()
        outcome = workloads.run_operation(op, self.seed)
        elapsed = time.perf_counter() - start
        self.samples[index].append(elapsed)
        key = (outcome.exit_code, outcome.stdout)
        seen = self.outputs[index].get(key)
        self.outputs[index][key] = (outcome, 1 if seen is None else seen[1] + 1)
        return elapsed

    def traced_cycle(self, tracer: Tracer):
        """Run each operation untraced, then at once traced.

        Adjacent pairs keep the drift of the host's speed out of the
        overhead; returns (untraced seconds, traced seconds).
        """
        untraced = traced = 0.0
        for index, op in enumerate(self.ops):
            untraced += self.run_op(index)
            tracer.phase = op.order if self.phased else None
            tracer.install()
            try:
                traced += self.run_op(index)
            finally:
                tracer.uninstall()
        return untraced, traced

    def check(self):
        """(attempted, failed, labels of failing operations)."""
        attempted = failed = 0
        bad = []
        for op, outputs in zip(self.ops, self.outputs):
            for outcome, count in outputs.values():
                attempted += count
                try:
                    ok = workloads.check(op, outcome)
                except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
                    ok = False
                if not ok:
                    failed += count
                    bad.append(op.label)
        return attempted, failed, bad

    def best(self):
        return [min(s) for s in self.samples]

    def digest(self) -> str:
        """sha256 of each operation's first stdout, in operation order."""
        first = "".join(next(iter(outputs))[1] for outputs in self.outputs)
        return hashlib.sha256(first.encode()).hexdigest()


def measure(run: Run, seconds: float, set_up_again) -> list:
    """Time the operations for ``seconds``, and set-up between them.

    One full cycle runs first; after it, operations continue while the next
    one, judged by its last time, should end within ``seconds``.  Set-up is
    timed SETUP_REPEATS - 1 more times, spread over the run in proportion
    to the time passed, so that its median sees the same host as the
    operations do.  Returns those set-up times.
    """
    setups = []
    start = time.perf_counter()

    def run_and_catch_up(index):
        run.run_op(index)
        passed = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        while len(setups) < (SETUP_REPEATS - 1) * min(passed, 1.0):
            setups.append(set_up_again())

    for index in range(len(run.ops)):
        run_and_catch_up(index)
    index = 0
    while time.perf_counter() - start + run.samples[index][-1] <= seconds:
        run_and_catch_up(index)
        index = (index + 1) % len(run.ops)
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up_again())
    return setups


def end_to_end(run: Run, setup_s: float) -> dict:
    best = run.best()
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(best), "s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, run: Run, untraced_s: float, traced_s: float) -> dict:
    metrics = {}
    for name in traced_names():
        stat = tracer.stats[name]
        metrics[f"{name}.calls"] = (stat.calls, "count")
        metrics[f"{name}.self_s"] = (stat.self_s, "s")
        if name in INCLUSIVE:
            metrics[f"{name}.incl_s"] = (stat.incl_s, "s")
    suite_s = {op.argv[0]: s[0] for op, s in zip(run.ops, run.samples) if op.kind == "verify"}
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = (suite_s.get(suite, 0.0), "s")
    low, high = workloads.GROWTH_ORDERS
    for name in GROWTH:
        before, after = tracer.per_call(name, low), tracer.per_call(name, high)
        exponent = math.log2(after / before) if before and after else 0.0
        metrics[f"{name}.growth_exp"] = (exponent, "exponent")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report(workload: str, seed: int, run: Run, attempted: int, failed: int, bad, tracer=None):
    print(f"workload {workload}  seed {seed}")
    print(f"python {platform.python_version()}  commit {git_commit()}  nproc {os.cpu_count()}")
    best = run.best()
    cycles = min(len(s) for s in run.samples)
    print(f"operations {len(run.ops)}  samples per operation >= {cycles}  attempted {attempted}")
    if tracer is not None:
        print("traced self time, top 10:")
        top = sorted(tracer.stats.items(), key=lambda item: -item[1].self_s)[:10]
        for name, stat in top:
            print(f"  {name:<40} {stat.calls:>9} calls  {stat.self_s:9.4f} s")
    elif workload == "verify-all":
        print(f"verify_all_s {sum(best):.4f}")
        for op, b in zip(run.ops, best):
            print(f"  {op.argv[0]:<14} {b:.4f} s")
    elif workload == "cli-mix":
        print(f"cli_p50_ms {statistics.median(best) * 1e3:.3f}")
        print(f"cli_p90_ms {statistics.quantiles(best, n=10, method='inclusive')[8] * 1e3:.3f}")
        print(f"cli_cmds_per_s {len(best) / sum(best):.3f}  (samples {len(best)})")
    else:
        for order in workloads.GROWTH_ORDERS:
            total = sum(b for op, b in zip(run.ops, best) if op.order == order)
            print(f"order{order}_s {total:.4f}")
    print(f"failed_frac {failed / attempted:.4f}")
    print(f"stdout_sha256 {run.digest()}")
    for label in bad[:10]:
        print(f"FAILED {label[:200]}")
    if len(bad) > 10:
        print(f"FAILED ... and {len(bad) - 10} more")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, measure, check and report one run; None if umbral is missing."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        ops, first_setup = set_up(workload, seed)
    except ImportError as exc:
        print(f"error: cannot import umbral from {SRC}: {exc}", file=sys.stderr)
        return None
    run = Run(ops, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        untraced_s, traced_s = run.traced_cycle(tracer)
        metrics = per_layer(tracer, run, untraced_s, traced_s)
    else:
        setups = measure(run, seconds, lambda: set_up(workload, seed)[1])
        metrics = end_to_end(run, statistics.median([first_setup] + setups))
    attempted, failed, bad = run.check()
    report(workload, seed, run, attempted, failed, bad, tracer)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

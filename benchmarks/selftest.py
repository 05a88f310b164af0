"""Self-test of the benchmark harness.

    python3 benchmarks/selftest.py [--workload NAME ...] [--seed 42]

For each workload it makes two traced runs on the same seed and one short
untraced run, and asserts that

- every ``*.calls`` count is identical between the two traced runs;
- the traced runs report ``trace.overhead_frac``, the traced cycle's wall
  time over the untraced cycle's, minus one;
- the metric names are exactly those listed in ``BENCHMARK.json``;
- every output passed its correctness check.

Exits 1 on the first failed assertion.  A full run takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def expected_names(section: str):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def check_workload(name: str, seed: int) -> list:
    problems = []
    first, second = (run.run_workload(name, seed, 0, trace=True) for _ in range(2))
    untraced = run.run_workload(name, seed, 0, trace=False)
    for result in (first, second, untraced):
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} operations failed")
    if sorted(first["metrics"]) != sorted(expected_names("per_layer")):
        problems.append(f"{name}: traced metric names differ from BENCHMARK.json per_layer")
    if sorted(untraced["metrics"]) != sorted(expected_names("end_to_end")):
        problems.append(f"{name}: untraced metric names differ from BENCHMARK.json end_to_end")
    calls = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
        for r in (first, second)
    ]
    if calls[0] != calls[1]:
        differing = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
        problems.append(f"{name}: call counts differ between traced runs: {differing}")
    overhead = first["metrics"].get("trace.overhead_frac")
    if overhead is None:
        problems.append(f"{name}: trace.overhead_frac missing")
    else:
        print(f"# {name}: trace.overhead_frac {overhead['value']:+.4f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    problems = []
    for name in args.workload or sorted(workloads.WORKLOADS):
        problems += check_workload(name, args.seed)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

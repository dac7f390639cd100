#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] \
        [--seconds 20] [--trace 0]

For every metric it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the quartile distance as
a share of the median. Raw result lines are appended to
.bench_out/spread-<workload>-trace<t>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    log = out / f"spread-{args.workload}-trace{args.trace}.jsonl"
    values = {}
    units = {}
    failed = 0
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    print(f"{'metric':<26} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<26} {units[name]:<9} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f}")
    print(f"failed operations over all runs: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

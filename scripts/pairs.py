#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, run by run in pairs.

    python3 scripts/pairs.py PARENT CHANGE --workload W --pairs N --seed S

Pair i runs `perfbench/run.py --workload W --seed S+i --trace 0` for
PARENT's BENCHMARK.json run_seconds once in each checkout, one process at a
time, through scripts/bench.py's perfbench(); even pairs run PARENT first,
odd pairs CHANGE first, so a drift in the machine's speed falls on both
sides.  Each run is read through its result line.  For every
end-to-end metric of PARENT's BENCHMARK.json the script prints each side's
median and quartiles, the ratio of the medians (CHANGE / PARENT), how many
pairs CHANGE won, whether the median moved by more than the distance
between PARENT's quartiles, and whether it stayed within the metric's
`bound`: CHANGE's median is worse than PARENT's by at most `bound` times
PARENT's median.  Then every run's `correct` and `failed`.
Standard library only; openecon is never imported here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench import perfbench


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text("utf-8"))

    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, result = perfbench(getattr(args, side), args.workload,
                                  spec["run_seconds"], 0, seed)
            results[side].append(result)
            print(f"pair {i} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':<12} {'parent: median [q1, q3]':<36} "
          f"{'change: median [q1, q3]':<36} {'ratio':>7} {'wins':>6}  "
          "beyond IQR  within bound")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        old, new = ([r["metrics"][name]["value"] for r in results[side]]
                    for side in ("parent", "change"))
        (p1, pm, p3), (c1, cm, c3) = spread(old), spread(new)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        gain = (cm - pm) if higher else (pm - cm)
        print(f"{name:<12} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<36} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<36} "
              f"{cm / pm if pm else float('nan'):>7.4f} {wins:>3}/{args.pairs:<2}"
              f"  {'yes' if gain > p3 - p1 else 'no':<10}"
              f"  {'yes' if -gain <= metric['bound'] * pm else 'no'}")
    for side in ("parent", "change"):
        runs = ", ".join(f"{r['correct']}/{r['failed']}" for r in results[side])
        print(f"{side} correct/failed per pair: {runs}")
    ok = all(r["correct"] and not r["failed"]
             for side in results.values() for r in side)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

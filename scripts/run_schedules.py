#!/usr/bin/env python3
"""Tabulate saving/investment schedules in both modes around a reference rate.

    PYTHONPATH=src python3 scripts/run_schedules.py [--rate R]

Each mode prints the 41 rates of schedules.default_grid(R), the slopes of
the saving sum S0N + S1X and of I0 on the segment that starts at R, and,
in partial mode, the segments where the saving sum does not rise: a saving
sum rising against falling investment is the crossing's local-stability
condition.  In full mode the sum tracks I0 identically.  A rate below
0.01, where the grid's floor leaves it outside the grid, exits 2 with
`error: r_ref must lie within the grid span` on stderr, as
`openecon schedules --mode partial` does; at a rate of -0.19 or less,
where the 41 rates do not rise, the error is default_grid's.
"""

import argparse
import sys

import numpy as np

from openecon import baseline_instance, compute_schedules
from openecon.schedules import MODES, default_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rate", type=float, default=0.4821,
                        help="reference rate (default 0.4821)")
    args = parser.parse_args()

    instance = baseline_instance()
    try:
        grid = default_grid(args.rate)
        results = [compute_schedules(instance, grid, mode=mode, r_ref=args.rate)
                   for mode in MODES]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for mode, (columns, _) in zip(MODES, results):
        i0, s0n, s1x = columns["i0"], columns["s0n"], columns["s1x"]
        saving_sum_slope = np.diff(s0n + s1x) / np.diff(grid)
        i0_slope = np.diff(i0) / np.diff(grid)
        print(f"== {mode} ==")
        print(f"{'r':>8} {'I0':>12} {'S0N':>12} {'S1X':>12} {'S-I':>12}")
        for r, i, s0, s1, res in zip(grid, i0, s0n, s1x, columns["residual"]):
            print(f"{r:8.4f} {i:12.1f} {s0:12.1f} {s1:12.1f} {res:12.2f}")
        mid = i0_slope.size // 2
        print(f"slopes near r_ref: d(S0N+S1X)/dr = {saving_sum_slope[mid]:.1f}, "
              f"dI0/dr = {i0_slope[mid]:.1f}")
        flagged = np.flatnonzero(saving_sum_slope <= 0).tolist()
        if mode == "partial" and flagged:
            print("flagged segments:", flagged)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

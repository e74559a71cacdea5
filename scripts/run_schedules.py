#!/usr/bin/env python3
"""Tabulate saving/investment schedules in both modes around a reference rate.

    PYTHONPATH=src python3 scripts/run_schedules.py [--rate R]

Each mode prints the 41 rates of schedules.default_grid(R), the slopes of
the saving sum S0N + S1X and of I0 on the segment that starts at R, and,
in partial mode, the segments where the saving sum does not rise: a saving
sum rising against falling investment is the crossing's local-stability
condition.  In full mode the sum tracks I0 identically.
"""

import argparse

import numpy as np

from openecon import baseline_instance, compute_schedules
from openecon.schedules import default_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rate", type=float, default=0.4821,
                        help="reference rate (default 0.4821)")
    args = parser.parse_args()

    instance = baseline_instance()
    grid = default_grid(args.rate)

    for mode in ("full_equilibrium", "partial"):
        curve = compute_schedules(instance, grid, mode=mode, r_ref=args.rate)
        saving_sum_slope = np.diff(curve.s0n + curve.s1x) / np.diff(curve.grid)
        i0_slope = np.diff(curve.i0) / np.diff(curve.grid)
        print(f"== {mode} ==")
        print(f"{'r':>8} {'I0':>12} {'S0N':>12} {'S1X':>12} {'S-I':>12}")
        for r, i, s0, s1, res in zip(curve.grid, curve.i0, curve.s0n,
                                     curve.s1x, curve.residual):
            print(f"{r:8.4f} {i:12.1f} {s0:12.1f} {s1:12.1f} {res:12.2f}")
        mid = i0_slope.size // 2
        print(f"slopes near r_ref: d(S0N+S1X)/dr = {saving_sum_slope[mid]:.1f}, "
              f"dI0/dr = {i0_slope[mid]:.1f}")
        flagged = np.flatnonzero(saving_sum_slope <= 0).tolist()
        if mode == "partial" and flagged:
            print("flagged segments:", flagged)
        print()


if __name__ == "__main__":
    main()

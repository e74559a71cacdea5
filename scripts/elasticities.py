#!/usr/bin/env python3
"""Which parameters move the balanced-trade rate r*, and how strongly.

Prints the elasticity of log(1 + r*) to each log parameter on the baseline,
then ranks the parameters by |elasticity| on sampled economies.  Each
elasticity is a central difference: the parameter times exp(+-STEP),
balanced_trade re-resolved over BRACKET at each side.  A parameter at zero
has elasticity 0; delta at its bound of 1 is not moved up, so on the
baseline it is left out.  A draw counts only where every re-resolve succeeds.
"""

import argparse
import math
from collections import Counter

import numpy as np

from openecon import (ClosureSpec, ConvergenceError, baseline_instance,
                      resolve_rate)
from openecon.acceptance import sample_instance
from openecon.model import PARAMETERS, with_parameters

STEP = 1e-4
BRACKET = (0.01, 5.0)
SPEC = ClosureSpec("balanced_trade", bracket=BRACKET)
# years_per_period only annualizes rates: r* does not read it.
NAMES = tuple(field for _, field, _, _ in PARAMETERS
              if field != "years_per_period")


def log_gross_rate(instance) -> float:
    return math.log1p(resolve_rate(instance, SPEC)[0])


def elasticity(instance, name: str) -> float:
    """d log(1 + r*) / d log x for x = getattr(instance, name)."""
    x = getattr(instance, name)
    up, down = (log_gross_rate(with_parameters(instance, {name: x * f}))
                for f in (math.exp(STEP), math.exp(-STEP)))
    return (up - down) / (2.0 * STEP)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=150)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    base = baseline_instance()
    print(f"baseline r* = {resolve_rate(base, SPEC)[0]:.6f}; "
          f"elasticity of log(1 + r*) to each log parameter:")
    table = {name: elasticity(base, name) for name in NAMES if name != "delta"}
    for name, e in sorted(table.items(), key=lambda item: -abs(item[1])):
        print(f"  {name:<8} {e:+.3f}")

    rng = np.random.default_rng(args.seed)
    firsts, top_two, ranks, counted = Counter(), Counter(), {}, 0
    for _ in range(args.draws):
        instance = sample_instance(rng)
        try:
            e = {name: elasticity(instance, name) for name in NAMES}
        except (ValueError, ConvergenceError):
            continue
        counted += 1
        order = sorted(NAMES, key=lambda name: -abs(e[name]))
        firsts[order[0]] += 1
        top_two.update(order[:2])
        for rank, name in enumerate(order, start=1):
            ranks.setdefault(name, []).append(rank)
    print(f"\n{counted} of {args.draws} draws of sample_instance"
          f"(default_rng({args.seed})) resolve at every step; "
          f"by |elasticity| over {len(NAMES)} parameters:")
    print(f"  {'name':<8} {'first':>5} {'top 2':>5} {'median rank':>11}")
    for name in sorted(NAMES, key=lambda name: np.median(ranks[name])):
        print(f"  {name:<8} {firsts[name]:>5} {top_two[name]:>5} "
              f"{np.median(ranks[name]):>11g}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the candidate rate-selection rules on the baseline economy."""

import numpy as np

from openecon import (ClosureSpec, baseline_instance, resolve_rate,
                      solve_at_rate, welfare_stationarity_check)


def main():
    instance = baseline_instance()
    eq_ref = solve_at_rate(instance, 0.4821)
    specs = [
        ("balanced trade", ClosureSpec("balanced_trade",
                                       bracket=(0.4821, 2.0))),
        ("trade share target (observed)",
         ClosureSpec("trade_share_target",
                     target_share=eq_ref.tb0 / eq_ref.y0,
                     bracket=(0.1, 1.5))),
        ("welfare sweep",
         ClosureSpec("welfare_sweep",
                     grid=tuple(np.linspace(0.30, 1.20, 91)))),
    ]

    # the published rate is given, so it takes no rule and no evaluation
    rows = [("published rate", 0.4821, 0)]
    for name, spec in specs:
        r, diag = resolve_rate(instance, spec)
        rows.append((name, r, diag.evaluations))

    print(f"{'rule':<32} {'r':>9} {'tb0/y0':>9} {'I0':>10} "
          f"{'C0':>10} {'dU/dr':>11} {'evals':>6}")
    for name, r, evaluations in rows:
        eq = solve_at_rate(instance, r)
        slope = welfare_stationarity_check(instance, r)
        print(f"{name:<32} {r:9.5f} {eq.tb0 / eq.y0:9.4f} {eq.i0:10.1f} "
              f"{eq.C0:10.1f} {slope:11.3e} {evaluations:6d}")


if __name__ == "__main__":
    main()

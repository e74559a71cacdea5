"""Seeded inputs for the benchmark, drawn with the benchmark's own RNG and bounds.

Nothing here calls openecon: a change to the program cannot change what the
workloads feed it.  Feasibility screens use the reference equations in
`oracle`.
"""

from __future__ import annotations

import random

from oracle import solve_or_none

# The embedded baseline calibration, in instance-file spellings.
BASELINE = {
    "alpha": 0.5, "gamma": 1.2, "delta": 1.0, "theta": 9.0, "rho": 0.5,
    "phi": 1.0, "A0": 1.0, "A1": 1.0, "N0": 10.0, "N1": 10.0, "K0": 31756.0,
    "tax0": 0.0, "G0": 0.0, "G1": 0.0, "l0_max": 35000.0, "l1_max": 29440.0,
    "years_per_period": 16.0,
}

ECONOMIES_PER_PASS = 2048
GRID_CASES_PER_PASS = 4
SCHEDULE_POINTS = 10_000
SWEEP_POINTS = 1001
CLI_SCHEDULE_POINTS = 2000


def economy(rng: random.Random, delta=(0.5, 1.0)) -> dict:
    """A random economy with equal household counts in both periods."""
    n = float(rng.randint(1, 39))
    u = rng.uniform
    return {
        "alpha": u(0.2, 0.65), "gamma": u(0.5, 3.0), "delta": u(*delta),
        "theta": u(1.0, 12.0), "rho": u(0.05, 1.0), "phi": u(0.5, 2.0),
        "A0": u(0.5, 2.0), "A1": u(0.5, 2.0), "N0": n, "N1": n,
        "K0": u(1000.0, 60000.0), "tax0": u(-10.0, 20.0), "G0": u(0.0, 20.0),
        "G1": u(0.0, 20.0), "l0_max": u(5000.0, 40000.0),
        "l1_max": u(1000.0, 30000.0), "years_per_period": 16.0,
    }


def instance_text(p: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in p.items())


def linspace(start: float, stop: float, points: int) -> list[float]:
    step = (stop - start) / (points - 1)
    return [start + j * step for j in range(points)]


def economies(seed: int, count: int = ECONOMIES_PER_PASS) -> list[dict]:
    """The first `count` economies of a pass: economy, scenario text, targets."""
    rng = random.Random(f"economies:{seed}")
    out = []
    for j in range(count):
        p = economy(rng)
        rate, theta = rng.uniform(0.1, 1.2), rng.uniform(1.05, 1.3)
        rate2, k0 = rng.uniform(0.1, 1.2), rng.uniform(1000.0, 60000.0)
        scenarios = (
            f"[base]\nrate = {rate!r}\n\n"
            f"[higher_theta]\nrate = {rate!r}\nperturb.theta = {theta!r}\n\n"
            f"[capital]\nrate = {rate2!r}\nset.K0 = {k0!r}\n\n"
            "[balanced]\nclosure = balanced_trade\nbracket = 0.01, 2.0\n")
        # what each scenario solves, for the checks; None: a closure picks r
        suite = [(p, rate), (dict(p, theta=p["theta"] * theta), rate),
                 (dict(p, K0=k0), rate2), None]
        out.append({
            "name": f"economy{j}", "params": p, "text": instance_text(p),
            "target_share": rng.uniform(-0.25, 0.05),
            "fallback_rate": rng.uniform(0.1, 1.0),
            "scenarios": scenarios, "suite": suite,
        })
    return out


def grid_cases(seed: int) -> list[dict]:
    """One pass of `grid_dense`: instances with schedule and sweep grids.

    Half of the schedule grids start just below r = -1, so the points under
    the admissibility floor (and a few infeasible ones above it) are skipped.
    Sweep grids and reference rates are screened to be feasible throughout,
    because `welfare_sweep` rejects a grid with any bad point.
    """
    rng = random.Random(f"grid:{seed}")
    out = []
    while len(out) < GRID_CASES_PER_PASS:
        p = economy(rng, delta=(0.9, 1.0))
        if len(out) % 2:
            start = -1.0 - rng.uniform(0.005, 0.06)
        else:
            start = rng.uniform(0.01, 0.3)
        stop = rng.uniform(1.0, 2.5)
        r_ref = rng.uniform(max(0.2, start + 0.05), 0.9)
        sweep = (rng.uniform(0.05, 0.4), rng.uniform(1.0, 2.0))
        if solve_or_none(p, r_ref) is None or any(
                solve_or_none(p, r) is None
                for r in linspace(*sweep, SWEEP_POINTS)):
            continue
        out.append({"name": f"case{len(out)}", "params": p,
                    "text": instance_text(p),
                    "grid": (start, stop, SCHEDULE_POINTS), "r_ref": r_ref,
                    "sweep": (*sweep, SWEEP_POINTS)})
    return out


def cli_round(seed: int, index: int) -> dict:
    """Seeded arguments for round `index` of the cold-CLI command mix."""
    rng = random.Random(f"cli:{seed}:{index}")
    rate = rng.uniform(0.1, 1.5)
    grid = (rng.uniform(0.01, 0.3), rng.uniform(0.8, 1.6), CLI_SCHEDULE_POINTS)
    return {"rate": rate, "grid": grid}


def grid_arg(grid: tuple) -> str:
    start, stop, points = grid
    return f"--grid={start!r},{stop!r},{points}"

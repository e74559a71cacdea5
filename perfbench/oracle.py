"""Reference equilibrium written from the model's equations, for output checks.

The benchmark compares what openecon prints or returns with these values,
so the checks do not trust the code under test.  Everything here is plain
Python floats; parameters use the instance-file spellings (`alpha`, `A1`,
`tax0`, ...), as `inputs.economy` draws them.
"""

from __future__ import annotations

import math

MIN_GROSS_RETURN = 1e-9


class Inadmissible(ValueError):
    """r <= -1 or delta + r at or below the admissibility floor."""


class Infeasible(ValueError):
    """Present-value household income is not positive at this rate."""


def admissible(p: dict, r: float) -> bool:
    return r > -1.0 and p["delta"] + r > MIN_GROSS_RETURN


def utility(p: dict, c0: float, l0: float, c1: float, l1: float) -> float:
    g, th, beta = p["gamma"], p["theta"], 1.0 / (1.0 + p["rho"])

    def u(c, l):
        uc = math.log(c) if g == 1.0 else c ** (1.0 - g) / (1.0 - g)
        return uc - p["phi"] * l ** (1.0 + th) / (1.0 + th)

    return u(c0, l0) + beta * u(c1, l1)


def equilibrium(p: dict, r: float) -> dict:
    """Every endogenous quantity at rate r, keyed as in `Equilibrium`."""
    if not admissible(p, r):
        raise Inadmissible(r)
    a, d, th = p["alpha"], p["delta"], p["theta"]
    beta = 1.0 / (1.0 + p["rho"])
    R = 1.0 + r
    n0, n1, k0 = p["N0"], p["N1"], p["K0"]

    l1 = p["l1_max"]
    L1 = n1 * l1
    ratio = a / (d + r)
    w1 = (1.0 - a) * p["A1"] * ratio ** (a / (1.0 - a))
    k1 = p["A1"] * L1 * ratio ** (1.0 / (1.0 - a))
    y1 = k1 ** a * (p["A1"] * L1) ** (1.0 - a)

    base = (beta * R * (1.0 - a) * k0 ** a * p["A0"] ** (1.0 - a)
            * n0 ** (-a) * l1 ** th / w1)
    l0 = base ** (1.0 / (th + a))
    binding = l0 >= p["l0_max"]
    if binding:
        l0 = p["l0_max"]
    L0 = n0 * l0
    y0 = k0 ** a * (p["A0"] * L0) ** (1.0 - a)
    w0 = (1.0 - a) * y0 / L0

    i0 = k1 - (1.0 - d) * k0
    x0 = (y0 - w0 * L0 - i0) / n0
    x1 = (y1 - w1 * L1) / n1
    T1 = R * p["G0"] + p["G1"] - p["tax0"] * R
    tax0, tax1 = p["tax0"] / n0, T1 / n1
    income = w0 * l0 + w1 * l1 / R + x0 + x1 / R - tax0 - tax1 / R
    if income <= 0:
        raise Infeasible(r)

    growth = (beta * R) ** (1.0 / p["gamma"])
    q = 1.0 + growth / R
    c0 = income / q
    c1 = c0 * growth
    C0, C1 = n0 * c0, n1 * c1
    tb1 = y1 - C1 - p["G1"]
    return {
        "r": r, "y0": y0, "y1": y1, "k0": k0, "k1": k1, "L0": L0, "L1": L1,
        "l0": l0, "l1": l1, "w0": w0, "w1": w1, "c0": c0, "c1": c1,
        "C0": C0, "C1": C1, "x0": x0, "x1": x1, "tax0": tax0, "tax1": tax1,
        "T0": p["tax0"], "T1": T1, "tb0": y0 - C0 - i0 - p["G0"], "tb1": tb1,
        "i0": i0, "q": q, "s0n": y0 - C0 - p["G0"], "s1x": tb1 / R,
        "welfare": utility(p, c0, l0, c1, l1), "l0_binding": binding,
    }


def solve_or_none(p: dict, r: float) -> dict | None:
    try:
        return equilibrium(p, r)
    except (Inadmissible, Infeasible):
        return None


def bisect(p: dict, objective, lo: float, hi: float, tol: float,
           max_iterations: int) -> tuple[str, float | None]:
    """Where bisection on `objective(equilibrium)` over [lo, hi] ends.

    Replays the closures' bisection on the reference equations: both ends,
    then midpoints, stopping at the first point within `tol`.  Returns
    ("root", r), ("infeasible", r) at the first rate with no equilibrium,
    ("bracket", None) when the ends have the same sign, or ("convergence",
    None) when `max_iterations` midpoints find no root.
    """
    ends = []
    for r in (lo, hi):
        eq = solve_or_none(p, r)
        if eq is None:
            return "infeasible", r
        f = objective(eq)
        if abs(f) <= tol:
            return "root", r
        ends.append(f)
    f_lo, f_hi = ends
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        return "bracket", None
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        eq = solve_or_none(p, mid)
        if eq is None:
            return "infeasible", mid
        f = objective(eq)
        if abs(f) <= tol:
            return "root", mid
        if math.copysign(1.0, f) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f
        else:
            hi = mid
    return "convergence", None


def infeasible_between(p: dict, lo: float, hi: float, points: int = 257) -> bool:
    """Whether any of `points` evenly spaced rates in [lo, hi] has no equilibrium."""
    step = (hi - lo) / (points - 1)
    return any(solve_or_none(p, lo + j * step) is None for j in range(points))


def stationarity(p: dict, r: float, h: float) -> tuple[float, float]:
    """Central difference of welfare in r, with phi calibrated at r.

    phi is set so that phi * l0^theta = c0^(-gamma) * w0 holds at r.  Also
    returns the rounding scale of the difference, max |U(r +- h)| / h.
    """
    eq = equilibrium(p, r)
    cal = dict(p, phi=eq["c0"] ** (-p["gamma"]) * eq["w0"] / eq["l0"] ** p["theta"])

    def u(x):
        e = equilibrium(p, x)
        return utility(cal, e["c0"], e["l0"], e["c1"], e["l1"])

    up, down = u(r + h), u(r - h)
    return (up - down) / (2.0 * h), max(abs(up), abs(down)) / h


def partial_point(p: dict, ref: dict, r: float) -> tuple[float, float, float] | None:
    """(I0, S0N, S1X) of the partial schedule with incomes frozen at `ref`."""
    if not admissible(p, r):
        return None
    a, d = p["alpha"], p["delta"]
    R = 1.0 + r
    k1 = p["A1"] * ref["L1"] * (a / (d + r)) ** (1.0 / (1.0 - a))
    inc0 = ref["w0"] * ref["l0"] + ref["x0"] - ref["tax0"]
    inc1 = ref["w1"] * ref["l1"] + ref["x1"] - ref["tax1"]
    q = 1.0 + (R / (1.0 + p["rho"])) ** (1.0 / p["gamma"]) / R
    c0 = (inc0 + inc1 / R) / q
    return (k1 - (1.0 - d) * p["K0"], ref["y0"] - p["N0"] * c0 - p["G0"],
            ref["tb1"] / R)


def report_rows(p: dict, eq: dict) -> dict:
    """The standard result rows that `scenarios.report_row` returns."""
    r = eq["r"]
    return {
        "tb0": eq["tb0"], "r": r,
        "r_year": (1.0 + r) ** (1.0 / p["years_per_period"]) - 1.0,
        "i0": eq["i0"], "y1": eq["y1"], "y0": eq["y0"], "l0": eq["l0"],
        "C0": eq["C0"], "C1": eq["C1"], "i0_y0": eq["i0"] / eq["y0"],
        "c0_y0": eq["C0"] / eq["y0"],
        "wage_ratio": eq["w0"] / (eq["w1"] / (1.0 + r)),
        "tb0_y0": eq["tb0"] / eq["y0"], "w0": eq["w0"], "w0_r": eq["w0"] / r,
        "w1": eq["w1"],
    }


def close(got, want, scale: float, rel: float) -> bool:
    """|got - want| within rel * max(|want|, scale); bools must match."""
    if isinstance(want, bool) or isinstance(got, bool):
        return bool(got) == bool(want)
    if got is None or not math.isfinite(got):
        return False
    return abs(got - want) <= rel * max(abs(want), scale)

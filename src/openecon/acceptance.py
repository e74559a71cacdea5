"""Self-contained acceptance suite behind the `check` command.

Every criterion prints a single pass/fail line; all tolerances are fixed
here.  tests/test_acceptance.py asserts the same results under pytest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .closure import (ClosureSpec, calibrated_labor_weight, resolve_rate,
                      welfare_stationarity_check)
from .model import (Demography, Fiscal, ModelInstance, Preferences,
                    Technology, _euler_factor, annualize_rate, capital_demand,
                    future_wage, labor_supply_present, lifetime_utility,
                    output, solve_at_rate, solve_rates, wage_mpl)
from .reference import baseline_instance
from .scenarios import paper_suite, run_suite

CHECK_RATES = np.linspace(0.1, 1.0, 20)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number}: {self.title} ({self.detail})"


def sample_instance(rng: np.random.Generator) -> ModelInstance:
    """A random admissible economy with equal household counts.

    Bounds keep the firm's capital demand moderate so present-value income
    stays positive across the standard rate grid; draws that still turn out
    infeasible are rejected by the callers.
    """
    n = float(rng.integers(1, 40))
    return ModelInstance(
        preferences=Preferences(
            gamma=rng.uniform(0.5, 3.0), theta=rng.uniform(1.0, 12.0),
            rho=rng.uniform(0.05, 1.0), phi=rng.uniform(0.5, 2.0)),
        technology=Technology(
            alpha=rng.uniform(0.2, 0.65), delta=rng.uniform(0.5, 1.0),
            a0=rng.uniform(0.5, 2.0), a1=rng.uniform(0.5, 2.0)),
        demography=Demography(
            n0=n, n1=n, l0_max=rng.uniform(5000.0, 40000.0),
            l1_max=rng.uniform(1000.0, 30000.0)),
        fiscal=Fiscal(g0=rng.uniform(0.0, 20.0), g1=rng.uniform(0.0, 20.0),
                      t0=rng.uniform(-10.0, 20.0)),
        k0=rng.uniform(1000.0, 60000.0),
        years_per_period=16.0,
    )


def sample_feasible_instances(count: int, rates, seed: int = 20260824,
                              max_draws: int = 10000) -> list[ModelInstance]:
    """Instances that solve at every rate in `rates`."""
    rng = np.random.default_rng(seed)
    out: list[ModelInstance] = []
    for _ in range(max_draws):
        if len(out) >= count:
            break
        instance = sample_instance(rng)
        if not solve_rates(instance, rates)[1]:
            out.append(instance)
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} feasible instances in {max_draws} draws")
    return out


def _criterion_1() -> CriterionResult:
    start = time.perf_counter()
    report = run_suite(baseline_instance(), paper_suite())
    elapsed = time.perf_counter() - start
    cells = sum(len(r.deviations) for r in report.results)
    failed = [f"{r.name}:{key}" for r in report.results for key in r.failed_rows]
    base = next(r for r in report.results if r.name == "baseline").rows
    high_a1 = next(r for r in report.results if r.name == "higher_a1").rows
    anchors_ok = (
        abs(base["y0"] / 96492.12 - 1) <= 2e-3
        and abs(base["C0"] / 77935.89 - 1) <= 2e-3
        and abs(base["tb0"] / -14948.74 - 1) <= 2e-3
        and abs(high_a1["i0"] / 37722.37 - 1) <= 2e-3
        and abs(high_a1["w1"] - 0.1919) <= 2e-3
    )
    passed = not failed and anchors_ok and elapsed < 1.0
    return CriterionResult(
        1, "reference table reproduced within 2e-3", passed,
        f"{cells} cells, {len(failed)} failures, {elapsed*1e3:.0f} ms")


def _criterion_2() -> CriterionResult:
    report = run_suite(baseline_instance(), paper_suite())
    base = next(r for r in report.results if r.name == "baseline").rows
    gamma = next(r for r in report.results if r.name == "higher_gamma").rows
    production = ("y0", "y1", "l0", "i0", "w0", "w1", "r_year")
    equal = all(gamma[key] == base[key] for key in production)
    differ = all(gamma[key] != base[key] for key in ("C0", "C1", "tb0"))
    return CriterionResult(
        2, "gamma perturbation leaves the production side bit-identical",
        equal and differ,
        f"production rows equal: {equal}, consumption rows differ: {differ}")


@cache
def _worst_residuals() -> tuple[float, float, float, float, float]:
    """Worst Walras, saving-gap, Euler, labor and profit residuals over
    100 random economies x CHECK_RATES; the labor FOC counts only where
    the hours clamp does not bind."""
    worst = [0.0] * 5
    R = 1.0 + CHECK_RATES
    for instance in sample_feasible_instances(100, CHECK_RATES):
        p, t = instance.preferences, instance.technology
        c, _ = solve_rates(instance, CHECK_RATES)
        free = ~c["l0_binding"]
        labor_lhs = np.float_power(c["l0"], p.theta) * c["w1"]
        labor_rhs = p.beta * R * c["w0"] * np.float_power(c["l1"], p.theta)
        gaps = (
            np.abs(c["tb0"] + c["tb1"] / R) * (1.0 / c["y0"]),
            np.abs(c["s0n"] + c["s1x"] - c["i0"]) * (1.0 / c["y0"]),
            np.abs(c["c1"] / c["c0"] / _euler_factor(p, CHECK_RATES, np.float_power)
                   - 1.0),
            np.abs(labor_lhs[free] / labor_rhs[free] - 1.0),
            np.abs(c["y1"] - c["w1"] * c["L1"] - (t.delta + CHECK_RATES) * c["k1"])
            / c["y1"],
        )
        worst = [max(w, float(g.max(initial=0.0))) for w, g in zip(worst, gaps)]
    return tuple(worst)


def _criterion_3() -> CriterionResult:
    worst_walras, worst_saving = _worst_residuals()[:2]
    passed = worst_walras <= 1e-9 and worst_saving <= 1e-9
    return CriterionResult(
        3, "budget identities on 100 random economies x 20 rates", passed,
        f"max |walras|/y0 = {worst_walras:.2e}, max |saving gap|/y0 = {worst_saving:.2e}")


def _criterion_4() -> CriterionResult:
    worst_euler, worst_labor, worst_profit = _worst_residuals()[2:]
    passed = worst_euler <= 1e-12 and worst_labor <= 1e-10 and worst_profit <= 1e-10
    return CriterionResult(
        4, "first-order-condition residuals", passed,
        f"euler {worst_euler:.2e}, labor {worst_labor:.2e}, profit {worst_profit:.2e}")


def iterate_labor_supply(instance: ModelInstance, r: float, w1: float,
                         damping: float = 0.5, tol: float = 1e-14,
                         max_iter: int = 500) -> float:
    """Damped fixed-point oracle for present hours (ignores the clamp)."""
    p, t, d = instance.preferences, instance.technology, instance.demography
    a = t.alpha
    scale = (1.0 - a) * instance.k0 ** a * t.a0 ** (1.0 - a)

    def step(l0):
        w0 = scale * (d.n0 * l0) ** (-a)
        return (p.beta * w0 * (1.0 + r) / w1) ** (1.0 / p.theta) * d.l1_max

    l0 = d.l1_max
    for _ in range(max_iter):
        nxt = math.exp((1.0 - damping) * math.log(l0)
                       + damping * math.log(step(l0)))
        if abs(nxt / l0 - 1.0) < tol:
            return nxt
        l0 = nxt
    return l0


def _criterion_5() -> CriterionResult:
    instances = sample_feasible_instances(100, [0.2, 0.8])
    rng = np.random.default_rng(7)
    worst_l0 = 0.0
    worst_w1 = 0.0
    for instance in instances:
        t = instance.technology
        r = rng.uniform(0.1, 1.0)
        w1 = future_wage(t, r)
        closed, binding = labor_supply_present(instance, r, w1)
        if not binding:
            iterated = iterate_labor_supply(instance, r, w1)
            worst_l0 = max(worst_l0, abs(closed / iterated - 1.0))
        for _ in range(10):
            L1 = rng.uniform(100.0, 1e6)
            k1 = capital_demand(t, L1, r)
            composed = wage_mpl(output(k1, t.a1, L1, t.alpha), L1, t.alpha)
            worst_w1 = max(worst_w1, abs(w1 / composed - 1.0))
    passed = worst_l0 <= 1e-10 and worst_w1 <= 1e-12
    return CriterionResult(
        5, "closed forms match their iterative/composed oracles", passed,
        f"hours {worst_l0:.2e}, future wage {worst_w1:.2e}")


def _criterion_6() -> CriterionResult:
    report = run_suite(baseline_instance(), paper_suite())
    failed = [c.name for c in report.sign_checks if not c.passed]
    return CriterionResult(
        6, "directional comparative-statics checks", not failed,
        f"{len(report.sign_checks)} checks, failures: {failed or 'none'}")


def _criterion_7() -> CriterionResult:
    r16 = annualize_rate(0.4821, 16)
    rho16 = annualize_rate(0.5, 16)
    passed = round(r16, 4) == 0.0249 and round(rho16, 3) == 0.026
    return CriterionResult(
        7, "per-year rate conversion", passed,
        f"(0.4821, 16y) -> {r16:.5f}; (0.5, 16y) -> {rho16:.5f}")


def _criterion_8() -> CriterionResult:
    # Known-red: (alpha/(delta+r))^(1/(1-alpha)) is hump-shaped in alpha with
    # a peak near 0.4615 at delta+r = 1.4821, so strict decrease over the
    # whole [0.3, 0.7] range cannot hold.  Kept as stated; see README.
    base = baseline_instance()
    r = 0.4821
    alphas = np.linspace(0.3, 0.7, 41)
    values = [capital_demand(replace(base.technology, alpha=float(a)),
                             base.demography.n1 * base.demography.l1_max, r)
              for a in alphas]
    rising = [float(alphas[j]) for j in range(len(values) - 1)
              if values[j + 1] >= values[j]]
    return CriterionResult(
        8, "capital demand strictly decreasing in the capital share on [0.3, 0.7]",
        not rising,
        f"{len(alphas)} shares at r={r}; "
        + ("monotone" if not rising
           else f"rises on {len(rising)} segments (first at share {rising[0]:.2f})"))


def _criterion_9() -> CriterionResult:
    base = baseline_instance()
    spec = ClosureSpec(kind="balanced_trade", bracket=(0.4821, 2.0),
                       tolerance=1e-10)
    r_star, diag = resolve_rate(base, spec)
    eq = solve_at_rate(base, r_star)
    balances_ok = (abs(eq.tb0) <= 1e-10 * eq.y0
                   and abs(eq.tb1) <= 1e-9 * eq.y0)
    res_star = welfare_stationarity_check(base, r_star)
    res_base = welfare_stationarity_check(base, 0.4821)
    # scale against utility under the calibrated labor weight
    phi = calibrated_labor_weight(base, r_star)
    prefs = replace(base.preferences, phi=phi)
    u_cal = abs(lifetime_utility(eq.c0, eq.l0, eq.c1, eq.l1, prefs))
    stationary_ok = abs(res_star) <= 1e-3 * u_cal
    borrowing_ok = res_base < 0.0
    passed = balances_ok and stationary_ok and borrowing_ok
    return CriterionResult(
        9, "balanced-trade rate and welfare stationarity", passed,
        f"r* = {r_star:.6f} in {diag.iterations} steps, |tb0| = {abs(eq.tb0):.2e}, "
        f"dU/dr at r* = {res_star:.2e}, at 0.4821 = {res_base:.2e}")


def _criterion_10() -> CriterionResult:
    # The rate is a free input: distinct rates all yield internally
    # consistent equilibria; no selection rule is built into the core.
    rates = np.array([0.2, 0.4821, 0.75, 1.1, 1.8])
    c, errors = solve_rates(baseline_instance(), rates)
    ok = not errors and bool(np.all(
        np.abs(c["tb0"] + c["tb1"] / (1.0 + rates)) <= 1e-9 * c["y0"]))
    return CriterionResult(
        10, "rate selection stays a free input (documented degree of freedom)",
        ok, "5 distinct rates all internally consistent")


CRITERIA = [_criterion_1, _criterion_2, _criterion_3, _criterion_4,
            _criterion_5, _criterion_6, _criterion_7, _criterion_8,
            _criterion_9, _criterion_10]


def run_all(emit=print) -> list[CriterionResult]:
    """Run every criterion, emit one line each, return the results."""
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        emit(result.line())
    return results

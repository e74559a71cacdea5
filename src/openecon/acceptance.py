"""Self-contained acceptance suite behind the `check` command.

Every criterion prints a single pass/fail line; all tolerances are fixed
here.  tests/test_acceptance.py asserts the same results under pytest.
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass

from ._pcg64 import PCG64
from .closure import (ClosureSpec, calibrated_labor_weight, resolve_rate,
                      welfare_stationarity_check)
from .model import (DomainError, Equilibrium, InfeasibleError, ModelInstance,
                    _euler_factor, _linspace, annualize_rate,
                    capital_demand, solve_at_rate, with_parameters)
from .reference import baseline_instance
from .scenarios import paper_suite, run_suite


CHECK_RATES = _linspace(0.1, 1.0, 20)

# What the criteria share, evaluated once per run_all: the paper suite's report
# and run time, 100 sampled (instance, equilibria) pairs and their worst residuals.
Shared = namedtuple("Shared", "report seconds sample residuals")


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number}: {self.title} ({self.detail})"


def sample_instance(rng) -> ModelInstance:
    """A random admissible economy with equal household counts, drawn from
    `rng`: a PCG64 here, or any generator with numpy's uniform and integers.

    Bounds keep the firm's capital demand moderate so present-value income
    stays positive across the standard rate grid; draws that still turn out
    infeasible are rejected by the callers.
    """
    n = rng.integers(1, 40)
    return ModelInstance(
        gamma=rng.uniform(0.5, 3.0), theta=rng.uniform(1.0, 12.0),
        rho=rng.uniform(0.05, 1.0), phi=rng.uniform(0.5, 2.0),
        alpha=rng.uniform(0.2, 0.65), delta=rng.uniform(0.5, 1.0),
        a0=rng.uniform(0.5, 2.0), a1=rng.uniform(0.5, 2.0),
        n0=n, n1=n, l0_max=rng.uniform(5000.0, 40000.0),
        l1_max=rng.uniform(1000.0, 30000.0),
        g0=rng.uniform(0.0, 20.0), g1=rng.uniform(0.0, 20.0),
        t0=rng.uniform(-10.0, 20.0),
        k0=rng.uniform(1000.0, 60000.0),
        years_per_period=16.0,
    )


def _solve_at_rates(instance: ModelInstance, rates) -> list[Equilibrium] | None:
    """The equilibrium at each of `rates`, or None if any solve raises."""
    try:
        return [solve_at_rate(instance, r) for r in rates]
    except (DomainError, InfeasibleError):
        return None


def sample_feasible_instances(count: int, rates) -> list[tuple]:
    """The first `count` instances of a fixed draw that solve at every rate
    in `rates`, among at most 10000 draws, each with its equilibria there."""
    rng = PCG64(20260824)
    out: list[tuple] = []
    for _ in range(10000):
        if len(out) >= count:
            break
        instance = sample_instance(rng)
        equilibria = _solve_at_rates(instance, rates)
        if equilibria is not None:
            out.append((instance, equilibria))
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} feasible instances in 10000 draws")
    return out


def _shared() -> Shared:
    start = time.perf_counter()
    report = run_suite(baseline_instance(), paper_suite())
    seconds = time.perf_counter() - start
    sample = sample_feasible_instances(100, CHECK_RATES)
    return Shared(report, seconds, sample, _worst_residuals(sample, CHECK_RATES))


def _criterion_1(shared: Shared) -> CriterionResult:
    report, elapsed = shared.report, shared.seconds
    cells = sum(len(r.deviations) for r in report.results)
    failed = [f"{r.name}:{key}" for r in report.results for key in r.failed_rows]
    passed = not failed and elapsed < 1.0
    return CriterionResult(
        1, "reference table reproduced within 2e-3", passed,
        f"{cells} cells, {len(failed)} failures, {elapsed*1e3:.0f} ms")


def _criterion_2(shared: Shared) -> CriterionResult:
    rows = {r.name: r.rows for r in shared.report.results}
    base, gamma = rows["baseline"], rows["higher_gamma"]
    production = ("y0", "y1", "l0", "i0", "w0", "w1", "r_year")
    equal = all(gamma[key] == base[key] for key in production)
    differ = all(gamma[key] != base[key] for key in ("C0", "C1", "tb0"))
    return CriterionResult(
        2, "gamma perturbation leaves the production side bit-identical",
        equal and differ,
        f"production rows equal: {equal}, consumption rows differ: {differ}")


def _worst_residuals(sample, rates) -> tuple[float, float, float, float, float]:
    """Worst Walras, saving-gap, Euler, labor and profit residuals over the
    (instance, equilibria) pairs of `sample`, solved at `rates`; the labor FOC
    counts only where the hours clamp does not bind."""
    walras = saving = euler = labor = profit = 0.0
    for instance, equilibria in sample:
        beta, theta = instance.beta, instance.theta
        for r, eq in zip(rates, equilibria):
            R = 1.0 + r
            walras = max(walras, abs(eq.tb0 + eq.tb1 / R) * (1.0 / eq.y0))
            saving = max(saving, abs(eq.s0n + eq.s1x - eq.i0) * (1.0 / eq.y0))
            growth = _euler_factor(instance, r, operator.pow)
            euler = max(euler, abs(eq.c1 / eq.c0 / growth - 1.0))
            if not eq.l0_binding:
                lhs = eq.l0 ** theta * eq.w1
                rhs = beta * R * eq.w0 * eq.l1 ** theta
                labor = max(labor, abs(lhs / rhs - 1.0))
            gap = eq.y1 - eq.w1 * eq.L1 - (instance.delta + r) * eq.k1
            profit = max(profit, abs(gap) / eq.y1)
    return walras, saving, euler, labor, profit


def _criterion_3(shared: Shared) -> CriterionResult:
    worst_walras, worst_saving = shared.residuals[:2]
    passed = worst_walras <= 1e-9 and worst_saving <= 1e-9
    return CriterionResult(
        3, "budget identities on 100 random economies x 20 rates", passed,
        f"max |walras|/y0 = {worst_walras:.2e}, max |saving gap|/y0 = {worst_saving:.2e}")


def _criterion_4(shared: Shared) -> CriterionResult:
    worst_euler, worst_labor, worst_profit = shared.residuals[2:]
    passed = worst_euler <= 1e-12 and worst_labor <= 1e-10 and worst_profit <= 1e-10
    return CriterionResult(
        4, "first-order-condition residuals", passed,
        f"euler {worst_euler:.2e}, labor {worst_labor:.2e}, profit {worst_profit:.2e}")


def iterate_labor_supply(instance: ModelInstance, r: float, w1: float) -> float:
    """Fixed-point oracle for present hours (ignores the clamp), damped by
    half in logs, to a relative step of 1e-14 or 500 iterations."""
    a, beta, l1 = instance.alpha, instance.beta, instance.l1_max
    scale = (1.0 - a) * instance.k0 ** a * instance.a0 ** (1.0 - a)

    def step(l0):
        w0 = scale * (instance.n0 * l0) ** (-a)
        return (beta * w0 * (1.0 + r) / w1) ** (1.0 / instance.theta) * l1

    l0 = l1
    for _ in range(500):
        nxt = math.exp(0.5 * math.log(l0) + 0.5 * math.log(step(l0)))
        if abs(nxt / l0 - 1.0) < 1e-14:
            return nxt
        l0 = nxt
    return l0


def _criterion_5(shared: Shared) -> CriterionResult:
    rng = PCG64(7)
    worst_l0 = 0.0
    worst_w1 = 0.0
    for instance, _ in shared.sample:
        a = instance.alpha
        r = rng.uniform(0.1, 1.0)
        eq = solve_at_rate(instance, r)
        if not eq.l0_binding:
            iterated = iterate_labor_supply(instance, r, eq.w1)
            worst_l0 = max(worst_l0, abs(eq.l0 / iterated - 1.0))
        for _ in range(10):
            # the firm's capital choice for hours L1, then the wage (1-a)*Y/L1
            L1 = rng.uniform(100.0, 1e6)
            k1 = capital_demand(instance, L1, r)
            composed = (1.0 - a) * (k1 ** a * (instance.a1 * L1) ** (1.0 - a)) / L1
            worst_w1 = max(worst_w1, abs(eq.w1 / composed - 1.0))
    passed = worst_l0 <= 1e-10 and worst_w1 <= 1e-12
    return CriterionResult(
        5, "closed forms match their iterative/composed oracles", passed,
        f"hours {worst_l0:.2e}, future wage {worst_w1:.2e}")


def _criterion_6(shared: Shared) -> CriterionResult:
    failed = [c.name for c in shared.report.sign_checks if not c.passed]
    return CriterionResult(
        6, "directional comparative-statics checks", not failed,
        f"{len(shared.report.sign_checks)} checks, failures: {failed or 'none'}")


def _criterion_7(shared: Shared) -> CriterionResult:
    r16 = annualize_rate(0.4821, 16)
    rho16 = annualize_rate(0.5, 16)
    passed = round(r16, 4) == 0.0249 and round(rho16, 3) == 0.026
    return CriterionResult(
        7, "per-year rate conversion", passed,
        f"(0.4821, 16y) -> {r16:.5f}; (0.5, 16y) -> {rho16:.5f}")


def _criterion_8(shared: Shared) -> CriterionResult:
    # Known-red: (alpha/(delta+r))^(1/(1-alpha)) is hump-shaped in alpha with
    # a peak near 0.4615 at delta+r = 1.4821, so strict decrease over the
    # whole [0.3, 0.7] range cannot hold.  Kept as stated; see README.
    base = baseline_instance()
    r = 0.4821
    alphas = _linspace(0.3, 0.7, 41)
    values = [capital_demand(with_parameters(base, {"alpha": a}),
                             base.n1 * base.l1_max, r)
              for a in alphas]
    rising = [alphas[j] for j in range(len(values) - 1)
              if values[j + 1] >= values[j]]
    return CriterionResult(
        8, "capital demand strictly decreasing in the capital share on [0.3, 0.7]",
        not rising,
        f"{len(alphas)} shares at r={r}; "
        + ("monotone" if not rising
           else f"rises on {len(rising)} segments (first at share {rising[0]:.2f})"))


def _criterion_9(shared: Shared) -> CriterionResult:
    base = baseline_instance()
    spec = ClosureSpec(kind="balanced_trade", bracket=(0.4821, 2.0))
    r_star, diag = resolve_rate(base, spec)
    eq = solve_at_rate(base, r_star)
    balances_ok = (abs(eq.tb0) <= 1e-10 * eq.y0
                   and abs(eq.tb1) <= 1e-9 * eq.y0)
    res_star = welfare_stationarity_check(base, r_star)
    res_base = welfare_stationarity_check(base, 0.4821)
    # scale against utility under the calibrated labor weight
    phi = calibrated_labor_weight(base, r_star)
    u_cal = abs(solve_at_rate(with_parameters(base, {"phi": phi}), r_star).welfare)
    stationary_ok = abs(res_star) <= 1e-3 * u_cal
    borrowing_ok = res_base < 0.0
    passed = balances_ok and stationary_ok and borrowing_ok
    return CriterionResult(
        9, "balanced-trade rate and welfare stationarity", passed,
        f"r* = {r_star:.6f} in {diag.iterations} steps, |tb0| = {abs(eq.tb0):.2e}, "
        f"dU/dr at r* = {res_star:.2e}, at 0.4821 = {res_base:.2e}")


def _criterion_10(shared: Shared) -> CriterionResult:
    # The rate is a free input: distinct rates all yield internally
    # consistent equilibria; no selection rule is built into the core.
    rates = (0.2, 0.4821, 0.75, 1.1, 1.8)
    base = baseline_instance()
    equilibria = _solve_at_rates(base, rates)
    ok = (equilibria is not None
          and _worst_residuals([(base, equilibria)], rates)[0] <= 1e-9)
    return CriterionResult(
        10, "rate selection stays a free input (documented degree of freedom)",
        ok, "5 distinct rates all internally consistent")


CRITERIA = [_criterion_1, _criterion_2, _criterion_3, _criterion_4,
            _criterion_5, _criterion_6, _criterion_7, _criterion_8,
            _criterion_9, _criterion_10]


def run_all(emit=print) -> list[CriterionResult]:
    """Run every criterion, emit one line each, return the results."""
    shared = _shared()
    results = []
    for fn in CRITERIA:
        result = fn(shared)
        results.append(result)
        emit(result.line())
    return results

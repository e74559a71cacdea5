"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line.

Nine criteria must pass.  Criterion 8 is a defect in the spec and stays
red, as `openecon check` reports it (its only FAIL line, exit code 1): it
claims capital demand A1*L1*(alpha/(delta+r))^(1/(1-alpha)) is strictly
decreasing in the capital share alpha on [0.3, 0.7], but the function is
hump-shaped in alpha.  Its log-derivative is
[(1-alpha)/alpha + ln(alpha/(delta+r))]/(1-alpha)^2, positive below the
root alpha* of the bracket (about 0.4615 at delta+r = 1.4821) and negative
above it.  The criterion_8 case therefore asserts the red verdict, that
the reported rising segments are exactly those the analysis predicts, and
that capital demand rises below alpha* and falls above it; see README.

run_all evaluates what the criteria share once per call, with no cache:
one paper-suite report, one sample of economies with their equilibria at
CHECK_RATES, and the five worst residuals over that sample.  The per-point
loops this replaced are kept below as references, and the shared values
must equal theirs exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from openecon import (ClosureSpec, InfeasibleError, baseline_instance,
                      resolve_rate, solve_at_rate)
from openecon import acceptance
from openecon.acceptance import (CHECK_RATES, CRITERIA, _shared,
                                 _worst_residuals, run_all,
                                 sample_feasible_instances, sample_instance)
from openecon.closure import calibrated_labor_weight
from openecon.model import capital_demand
from reference_model import lifetime_utility

# Criterion 8 as stated: 41 capital shares on [0.3, 0.7] at the baseline rate.
SHARE_GRID = np.linspace(0.3, 0.7, 41)
SHARE_RATE = 0.4821


def peak_share(gross_return: float) -> float:
    """Capital share where A1*L1*(alpha/gross_return)^(1/(1-alpha)) peaks.

    The root of (1-alpha)/alpha + ln(alpha/gross_return) on (0, 1), found
    by bisection; the bracket decreases in alpha, so the root is unique.
    """
    def bracket(a):
        return (1.0 - a) / a + math.log(a / gross_return)

    lo, hi = 1e-6, 1.0 - 1e-6
    assert bracket(lo) > 0 > bracket(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bracket(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_criterion_8_red(result):
    base = baseline_instance()
    a_star = peak_share(base.delta + SHARE_RATE)
    segments = list(zip(SHARE_GRID[:-1], SHARE_GRID[1:]))
    below = [(a, b) for a, b in segments if b < a_star]
    above = [(a, b) for a, b in segments if a > a_star]
    assert below and above

    # (a) the documented verdict
    assert result.passed is False, result.detail
    # (b) the documented cause: exactly the segments below the peak rise
    assert result.detail == (
        f"{len(SHARE_GRID)} shares at r={SHARE_RATE}; rises on {len(below)} "
        f"segments (first at share {below[0][0]:.2f})")
    # (c) the true shape: strictly rising below the peak, falling above it
    L1 = base.n1 * base.l1_max

    def k1(alpha):
        return capital_demand(replace(base, alpha=float(alpha)), L1, SHARE_RATE)

    assert all(k1(b) > k1(a) for a, b in below)
    assert all(k1(b) < k1(a) for a, b in above)


@pytest.fixture(scope="module")
def shared():
    return _shared()


@pytest.mark.parametrize("number, criterion", enumerate(CRITERIA, 1),
                         ids=[f"criterion_{i}" for i in
                              range(1, len(CRITERIA) + 1)])
def test_criterion(number, criterion, shared, capsys):
    result = criterion(shared)
    with capsys.disabled():
        print(result.line())
    if number == 8:
        check_criterion_8_red(result)
    else:
        assert result.passed, result.detail


def test_calibrated_welfare_has_a_minimum_at_balanced_trade():
    """Criterion 9 finds dU/dr = 0 at the balanced-trade rate r*; that point
    is a minimum of utility under the labor weight calibrated there, so a
    welfare argmax over a grid is one of its ends.  The second difference
    is positive and scales as h^2 (about 0.0438 h^2)."""
    base = baseline_instance()
    spec = ClosureSpec(kind="balanced_trade", bracket=(0.4821, 2.0))
    r_star, _ = resolve_rate(base, spec)
    calibrated = replace(base, phi=calibrated_labor_weight(base, r_star))

    def u(r):
        eq = solve_at_rate(base, r)
        return lifetime_utility(eq.c0, eq.l0, eq.c1, eq.l1, calibrated)

    curvatures = [(u(r_star + h) - 2.0 * u(r_star) + u(r_star - h)) / h ** 2
                  for h in (1e-2, 1e-3, 1e-4)]
    assert all(c > 0 for c in curvatures)
    assert curvatures == pytest.approx([curvatures[0]] * 3, rel=1e-3)


# ---------------------------------------------------------------------------
# References: the replaced per-point loops
# ---------------------------------------------------------------------------

def reference_sample(count, rates, seed=20260824, max_draws=10000):
    """The sampling loop, and how many draws it took."""
    rng = np.random.default_rng(seed)
    out = []
    draws = 0
    for _ in range(max_draws):
        if len(out) >= count:
            break
        instance = sample_instance(rng)
        draws += 1
        try:
            for r in rates:
                solve_at_rate(instance, r)
        except InfeasibleError:
            continue
        out.append(instance)
    return out, draws


def reference_worst_residuals():
    instances, _ = reference_sample(100, CHECK_RATES)
    worst_walras = worst_saving = 0.0
    worst_euler = worst_labor = worst_profit = 0.0
    for instance in instances:
        for r in CHECK_RATES:
            eq = solve_at_rate(instance, r)
            scale = 1.0 / eq.y0
            worst_walras = max(worst_walras,
                               abs(eq.tb0 + eq.tb1 / (1.0 + r)) * scale)
            worst_saving = max(worst_saving,
                               abs(eq.s0n + eq.s1x - eq.i0) * scale)
            growth = (instance.beta * (1.0 + r)) ** (1.0 / instance.gamma)
            worst_euler = max(worst_euler, abs(eq.c1 / eq.c0 / growth - 1.0))
            if not eq.l0_binding:
                lhs = eq.l0 ** instance.theta * eq.w1
                rhs = instance.beta * (1.0 + r) * eq.w0 * eq.l1 ** instance.theta
                worst_labor = max(worst_labor, abs(lhs / rhs - 1.0))
            profit_gap = eq.y1 - eq.w1 * eq.L1 - (instance.delta + r) * eq.k1
            worst_profit = max(worst_profit, abs(profit_gap) / eq.y1)
    return worst_walras, worst_saving, worst_euler, worst_labor, worst_profit


def test_worst_residuals_match_per_point_loops(shared):
    want = reference_worst_residuals()
    assert _worst_residuals(shared.sample, CHECK_RATES) == want
    assert shared.residuals == want


@pytest.mark.parametrize("count, rates, rejected", [
    (100, CHECK_RATES, False),
    (100, [0.2, 0.8], False),    # criterion 5's former sample: the same draws
    (30, [-0.45, 0.5], True),    # income turns negative for some draws
], ids=["check_rates", "two_rates", "rejecting_rates"])
def test_sample_matches_per_point_loop(count, rates, rejected):
    want, draws = reference_sample(count, rates)
    assert (draws > count) is rejected
    assert [instance for instance, _ in
            sample_feasible_instances(count, rates)] == want


def test_run_all_evaluates_shared_work_once_per_call(monkeypatch):
    """Each run_all, the first in a process or a repeat, runs the paper
    suite once, samples the economies once and solves each sampled economy
    at the rates once (one _solve_at_rates call each), plus criterion 10's."""
    names = ("run_suite", "sample_feasible_instances", "_solve_at_rates")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(acceptance, name,
                            counted(name, getattr(acceptance, name)))
    for _ in range(2):
        calls.update(dict.fromkeys(names, 0))
        results = run_all(emit=lambda line: None)
        assert [r.number for r in results if not r.passed] == [8]
        assert calls == {"run_suite": 1, "sample_feasible_instances": 1,
                         "_solve_at_rates": 101}

"""Property-based invariants of the solved equilibrium."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openecon import (ClosureSpec, ConvergenceError, InfeasibleError,
                      ModelInstance, capital_demand, resolve_rate,
                      solve_at_rate)
from openecon.acceptance import iterate_labor_supply, sample_instance
from openecon.model import _FIELDS, with_parameters
from reference_model import lifetime_utility, output, wage_mpl

RATE_GRID = np.linspace(0.1, 1.0, 10)


def instances(equal_counts=True):
    def build(gamma, theta, rho, alpha, delta, a0, a1, n, l0_max, l1_max, k0,
              g0, g1, t0):
        return ModelInstance(
            gamma=gamma, theta=theta, rho=rho,
            alpha=alpha, delta=delta, a0=a0, a1=a1,
            n0=n, n1=n, l0_max=l0_max, l1_max=l1_max,
            g0=g0, g1=g1, t0=t0,
            k0=k0,
        )

    f = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(
        build,
        gamma=f.filter(lambda x: 0.5 <= x <= 3.0),
        theta=f.filter(lambda x: 1.0 <= x <= 12.0),
        rho=f.filter(lambda x: 0.05 <= x <= 1.0),
        alpha=f.filter(lambda x: 0.2 <= x <= 0.65),
        delta=f.filter(lambda x: 0.5 <= x <= 1.0),
        a0=f.filter(lambda x: 0.5 <= x <= 2.0),
        a1=f.filter(lambda x: 0.5 <= x <= 2.0),
        n=f.filter(lambda x: 1.0 <= x <= 40.0),
        l0_max=f.filter(lambda x: 5000.0 <= x <= 40000.0),
        l1_max=f.filter(lambda x: 1000.0 <= x <= 30000.0),
        k0=f.filter(lambda x: 1000.0 <= x <= 60000.0),
        g0=f.filter(lambda x: 0.0 <= x <= 20.0),
        g1=f.filter(lambda x: 0.0 <= x <= 20.0),
        t0=f.filter(lambda x: -10.0 <= x <= 20.0),
    )


def solve_or_assume(instance, r):
    try:
        return solve_at_rate(instance, r)
    except InfeasibleError:
        assume(False)


@given(instance=instances(), r=st.floats(0.1, 1.0))
@settings(max_examples=150, deadline=None)
def test_walras_and_saving_identities(instance, r):
    eq = solve_or_assume(instance, r)
    assert abs(eq.tb0 + eq.tb1 / (1 + r)) <= 1e-9 * eq.y0
    assert abs(eq.s0n + eq.s1x - eq.i0) <= 1e-9 * eq.y0


@given(instance=instances(), r=st.floats(0.1, 1.0))
@settings(max_examples=100, deadline=None)
def test_foc_residuals(instance, r):
    eq = solve_or_assume(instance, r)
    p = instance
    growth = (p.beta * (1 + r)) ** (1 / p.gamma)
    assert abs(eq.c1 / eq.c0 / growth - 1) <= 1e-12
    if not eq.l0_binding:
        lhs = eq.l0 ** p.theta * eq.w1
        rhs = p.beta * (1 + r) * eq.w0 * eq.l1 ** p.theta
        assert abs(lhs / rhs - 1) <= 1e-10
    # factor payments and the firm's future zero profit
    assert eq.w0 * eq.L0 == pytest.approx((1 - p.alpha) * eq.y0, rel=1e-12)
    assert eq.w1 * eq.L1 == pytest.approx((1 - p.alpha) * eq.y1, rel=1e-12)
    assert abs(eq.y1 - eq.w1 * eq.L1 - (p.delta + r) * eq.k1) <= 1e-10 * eq.y1


@given(instance=instances(), r=st.floats(0.1, 1.0))
@settings(max_examples=60, deadline=None)
def test_government_budget_and_q(instance, r):
    eq = solve_or_assume(instance, r)
    f = instance
    assert eq.T0 + eq.T1 / (1 + r) == pytest.approx(f.g0 + f.g1 / (1 + r),
                                                    rel=1e-12, abs=1e-9)
    assert eq.q > 1.0


def test_monotone_in_rate(baseline):
    eqs = [solve_at_rate(baseline, r) for r in RATE_GRID]
    for a, b in zip(eqs, eqs[1:]):
        assert b.k1 < a.k1
        assert b.i0 < a.i0
        assert b.l0 > a.l0
        assert b.tb0 > a.tb0


def test_gamma_invariance_of_production_side(baseline):
    twisted = replace(baseline, gamma=1.38)
    a = solve_at_rate(baseline, 0.4821)
    b = solve_at_rate(twisted, 0.4821)
    for name in ("y0", "y1", "l0", "w0", "w1", "k1", "i0"):
        assert getattr(a, name) == getattr(b, name)


def test_capital_demand_locally_decreasing_in_share(baseline):
    # decreasing in the share exactly where (1-a)/a + ln(a/(delta+r)) < 0;
    # at a = 0.5 and delta + r = 1.4821 that is 1 + ln(0.3374) = -0.087.
    # Checked by central finite difference
    L1 = baseline.n1 * baseline.l1_max
    h = 1e-6
    lo = capital_demand(replace(baseline, alpha=0.5 - h), L1, 0.4821)
    hi = capital_demand(replace(baseline, alpha=0.5 + h), L1, 0.4821)
    assert hi < lo


@given(instance=instances(), r=st.floats(0.1, 1.0),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_future_wage_matches_pipeline(instance, r, data):
    t = instance
    w1 = solve_or_assume(instance, r).w1
    for _ in range(10):
        L1 = data.draw(st.floats(10.0, 1e6))
        k1 = capital_demand(t, L1, r)
        composed = wage_mpl(output(k1, t.a1, L1, t.alpha), L1, t.alpha)
        assert w1 == pytest.approx(composed, rel=1e-12)


@given(instance=instances(), r=st.floats(0.1, 1.0))
@settings(max_examples=100, deadline=None)
def test_hours_closed_form_matches_iteration(instance, r):
    eq = solve_or_assume(instance, r)
    assume(not eq.l0_binding)
    iterated = iterate_labor_supply(instance, r, eq.w1)
    assert eq.l0 == pytest.approx(iterated, rel=1e-10)


# The model's two exact scale symmetries: multiplying every parameter of
# one group by s moves no rate and no hours ratio.
EFFICIENCY = ("a0", "a1", "k0", "g0", "g1", "t0")
POPULATION = ("n0", "n1", "k0", "g0", "g1", "t0")
# The Equilibrium fields that stay the same; every other field is multiplied
# by s, except welfare under EFFICIENCY, which is lifetime utility at s times
# the consumption and the same hours.
UNCHANGED = {
    EFFICIENCY: {"r", "L0", "L1", "l0", "l1", "q", "l0_binding"},
    POPULATION: {"r", "l0", "l1", "w0", "w1", "c0", "c1", "x0", "x1", "tax0",
                 "tax1", "q", "welfare", "l0_binding"},
}
# Bounds on the relative error, each about three times the worst measured
# on these draws: 6.6e-16 for the fields not listed, 6.4e-14 for these six,
# and 3.2e-12 for the fields computed as differences of larger terms.
SCALE_BOUND = {
    **dict.fromkeys(("c0", "c1", "C0", "C1", "x1", "welfare"), 2e-13),
    **dict.fromkeys(("x0", "i0", "T1", "tax1", "tb0", "tb1", "s0n", "s1x"),
                    1e-11),
}
SYMMETRIES = pytest.mark.parametrize("group", [EFFICIENCY, POPULATION],
                                     ids=["efficiency", "population"])


def scale_draws(count=300):
    """(instance, s): sample_instance draws, s from U(0.3, 3) after each."""
    rng = np.random.default_rng(12345)
    for _ in range(count):
        instance = sample_instance(rng)
        yield instance, rng.uniform(0.3, 3.0)


def scaled(instance, group, s):
    return with_parameters(instance, {name: getattr(instance, name) * s
                                      for name in group})


@SYMMETRIES
def test_scale_symmetry_at_fixed_rates(group):
    """A scaled economy solves at each rate exactly when the original does,
    and each field moves as UNCHANGED states."""
    solved = 0
    for instance, s in scale_draws():
        other = scaled(instance, group, s)
        for r in (-0.3, 0.05, 0.5, 1.5):
            try:
                eq = solve_at_rate(instance, r)
            except ValueError as exc:
                with pytest.raises(type(exc)):
                    solve_at_rate(other, r)
                continue
            solved += 1
            twin = solve_at_rate(other, r)
            for name in _FIELDS:
                value = getattr(eq, name)
                if name in UNCHANGED[group]:
                    want = value
                elif name == "welfare":
                    want = lifetime_utility(s * eq.c0, eq.l0, s * eq.c1,
                                            eq.l1, instance)
                else:
                    want = s * value
                assert (abs(getattr(twin, name) - want)
                        <= SCALE_BOUND.get(name, 2e-15) * abs(want)), (
                    name, instance, s, r)
    assert solved == 1156           # of 1200: 44 are InfeasibleError


@SYMMETRIES
def test_scale_symmetry_of_the_closures(group):
    """r* is the same to 1e-14 (worst measured 2.7e-15) under both
    root-finding closures, and a draw one refuses is refused alike."""
    specs = (ClosureSpec("balanced_trade"),
             ClosureSpec("trade_share_target", target_share=-0.05))
    resolved = [0, 0]
    for instance, s in scale_draws():
        other = scaled(instance, group, s)
        for k, spec in enumerate(specs):
            try:
                r_star, _ = resolve_rate(instance, spec)
            except (ValueError, ConvergenceError) as exc:
                with pytest.raises(type(exc)):
                    resolve_rate(other, spec)
                continue
            resolved[k] += 1
            assert abs(resolve_rate(other, spec)[0] - r_star) <= 1e-14, (
                instance, s)
    assert resolved == [216, 222]


def test_elasticities_of_r_star_cancel_along_each_symmetry(baseline):
    """On the baseline, where g0, g1 and t0 are zero, the elasticities of
    log(1 + r*) to the log parameters of each group sum to zero (measured
    1.3e-11 at worst).  Central differences, parameter times exp(+-1e-4),
    as scripts/elasticities.py computes them for README's table."""
    spec = ClosureSpec("balanced_trade", bracket=(0.01, 5.0))
    step = 1e-4

    def elasticity(name):
        x = getattr(baseline, name)
        up, down = (math.log1p(resolve_rate(with_parameters(
            baseline, {name: x * math.exp(h)}), spec)[0]) for h in (step, -step))
        return (up - down) / (2.0 * step)

    e = {name: elasticity(name) for name in ("a0", "a1", "k0", "n0", "n1")}
    assert {name: round(value, 3) for name, value in e.items()} == {
        "a0": -0.266, "a1": 0.532, "k0": -0.266, "n0": 0.142, "n1": 0.124}
    assert abs(e["a0"] + e["a1"] + e["k0"]) <= 1e-10
    assert abs(e["n0"] + e["n1"] + e["k0"]) <= 1e-10

"""Property-based invariants of the solved equilibrium."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openecon import (InfeasibleError, ModelInstance, capital_demand,
                      solve_at_rate)
from openecon.acceptance import iterate_labor_supply
from reference_model import output, wage_mpl

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

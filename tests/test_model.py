"""Unit tests for the core model operations against frozen expected values.

The classes for output, wages, hours, the Euler factor, Q, future taxes,
dividends and welfare pin the test oracle in reference_model; TestSolveAtRate pins the
same values on the kernel's Equilibrium fields.
"""

import ast
import copy
import math
import operator
import pickle
import re
import sys
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openecon import (DomainError, InfeasibleError, ModelInstance,
                      annualize_rate, baseline_instance, capital_demand,
                      solve_at_rate)
from openecon import model
from openecon.acceptance import sample_instance
from openecon.closure import ClosureSpec, resolve_rate
import reference_model
from reference_model import (dividends, euler_growth, future_wage,
                             government_t1, labor_supply_present,
                             lifetime_utility, output, q_factor, wage_mpl)

BASE = baseline_instance()
L1_BASE = 294400.0


class TestCapitalDemand:
    def test_baseline(self):
        assert capital_demand(BASE, L1_BASE, 0.4821) == \
            pytest.approx(33504.96, rel=2e-3)

    def test_unit_ratio(self):
        instance = replace(BASE, alpha=0.5, delta=0.5)
        assert capital_demand(instance, L1_BASE, 0.0) == L1_BASE

    def test_higher_rho_rate(self):
        # the discount-rate perturbation leaves technology unchanged
        assert capital_demand(BASE, L1_BASE, 0.5560) == \
            pytest.approx(30397.05, rel=2e-3)

    def test_decreasing_in_r(self):
        rates = np.linspace(0.1, 1.0, 25)
        values = [capital_demand(BASE, L1_BASE, r) for r in rates]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inadmissible_rate(self):
        with pytest.raises(DomainError):
            capital_demand(BASE, L1_BASE, -1.0)
        with pytest.raises(DomainError):
            capital_demand(replace(BASE, delta=0.3), L1_BASE, -0.3)

    def test_bad_hours(self):
        with pytest.raises(DomainError):
            capital_demand(BASE, 0.0, 0.4821)


class TestOutput:
    def test_future_baseline(self):
        assert output(33504.96, 1.0, L1_BASE, 0.5) == \
            pytest.approx(99316.97, rel=2e-3)

    def test_identity(self):
        for alpha in (0.2, 0.5, 0.8):
            assert output(1.0, 1.0, 1.0, alpha) == 1.0

    def test_present_baseline(self):
        # hand oracle: sqrt(K * L) at alpha = 1/2
        expected = math.sqrt(31756.0 * 293200.0)
        assert output(31756.0, 1.0, 293200.0, 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(96492.0, rel=2e-3)

    def test_degree_one_homogeneity(self):
        y = output(31756.0, 1.0, 293200.0, 0.4)
        assert output(2 * 31756.0, 1.0, 2 * 293200.0, 0.4) == \
            pytest.approx(2 * y, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            output(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            output(1.0, 1.0, -1.0, 0.5)


class TestWageMpl:
    def test_present(self):
        assert wage_mpl(96492.12, 293200.0, 0.5) == pytest.approx(0.1646, rel=1e-3)

    def test_unit(self):
        assert wage_mpl(1.0, 1.0, 0.5) == 0.5

    def test_future(self):
        assert wage_mpl(99316.97, L1_BASE, 0.5) == pytest.approx(0.1687, rel=1e-3)

    def test_factor_payment_identity(self):
        y, L, alpha = 96492.12, 293200.0, 0.5
        assert wage_mpl(y, L, alpha) * L == pytest.approx((1 - alpha) * y, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            wage_mpl(1.0, 0.0, 0.5)


class TestFutureWage:
    def test_baseline(self):
        assert future_wage(BASE, 0.4821) == pytest.approx(0.168680, abs=1e-4)

    def test_unit_ratio(self):
        assert future_wage(replace(BASE, delta=0.5), 0.0) == 0.5

    def test_higher_a1(self):
        instance = replace(BASE, a1=1.15)
        assert future_wage(instance, 0.4979) == pytest.approx(0.1919, rel=1e-3)

    def test_matches_composed_pipeline(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            L1 = rng.uniform(10.0, 1e6)
            r = rng.uniform(0.05, 1.5)
            k1 = capital_demand(BASE, L1, r)
            composed = wage_mpl(output(k1, BASE.a1, L1, BASE.alpha),
                                L1, BASE.alpha)
            assert future_wage(BASE, r) == pytest.approx(composed, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            future_wage(BASE, -1.5)


class TestLaborSupply:
    def test_baseline(self, baseline):
        l0, binding = labor_supply_present(baseline, 0.4821, 0.168680)
        assert l0 == pytest.approx(29320.0, rel=1e-3)
        assert not binding

    def test_symmetry(self, baseline):
        # with w1 chosen so beta*w0*(1+r)/w1 = 1 at l0 = l1, hours equalize
        b, r = baseline, 0.25
        w0_at_l1 = (1 - b.alpha) * b.k0 ** b.alpha * \
            b.a0 ** (1 - b.alpha) * (b.n0 * b.l1_max) ** (-b.alpha)
        w1 = b.beta * (1 + r) * w0_at_l1
        l0, binding = labor_supply_present(b, r, w1)
        assert l0 == pytest.approx(b.l1_max, rel=1e-12)
        assert not binding

    def test_clamp(self, baseline):
        low_cap = replace(baseline, l0_max=20000.0)
        l0, binding = labor_supply_present(low_cap, 0.4821, 0.168680)
        assert l0 == 20000.0
        assert binding

    def test_domain(self, baseline):
        with pytest.raises(DomainError):
            labor_supply_present(baseline, 0.4821, 0.0)
        with pytest.raises(DomainError):
            labor_supply_present(baseline, -1.0, 0.1687)


class TestEulerGrowth:
    def test_baseline(self):
        # oracle: published C1/C0 = 77161.10 / 77935.89
        assert euler_growth(BASE, 0.4821) == pytest.approx(0.99005, abs=1e-4)

    def test_stationary(self):
        for gamma in (0.7, 1.0, 2.5):
            instance = replace(BASE, gamma=gamma)
            assert euler_growth(instance, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_higher_a1_rate(self):
        assert euler_growth(BASE, 0.4979) == pytest.approx(0.99883, abs=1e-4)


class TestQFactor:
    def test_baseline(self):
        assert q_factor(BASE, 0.4821) == pytest.approx(1.66799, abs=1e-4)

    def test_log_like_limit(self):
        assert q_factor(replace(BASE, rho=1e-12), 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_higher_rho(self):
        assert q_factor(replace(BASE, rho=0.575), 0.5560) == pytest.approx(1.63621, abs=1e-4)

    def test_exceeds_one(self):
        for r in np.linspace(-0.5, 2.0, 11):
            assert q_factor(BASE, r) > 1.0


class TestGovernment:
    def test_no_government(self):
        assert government_t1(BASE, 0.4821) == 0.0

    def test_balanced_period0(self):
        assert government_t1(replace(BASE, g0=10.0, t0=10.0), 0.77) == 0.0

    def test_deferred_spending(self):
        assert government_t1(replace(BASE, g1=5.0), 0.5) == 5.0

    def test_pv_budget(self):
        instance = replace(BASE, g0=7.0, g1=3.0, t0=2.0)
        for r in (0.1, 0.5, 1.2):
            t1 = government_t1(instance, r)
            lhs = instance.t0 + t1 / (1 + r)
            rhs = instance.g0 + instance.g1 / (1 + r)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestDividends:
    def test_present(self):
        assert dividends(96492.12, 48246.06 / 293200.0, 293200.0,
                         33504.96, 10.0) == pytest.approx(1474.1, rel=5e-3)

    def test_zero_profit(self):
        assert dividends(10.0, 1.0, 10.0, 0.0, 4.0) == 0.0

    def test_future(self):
        x1 = dividends(99316.97, 49658.49 / L1_BASE, L1_BASE, 0.0, 10.0)
        assert x1 == pytest.approx(4965.85, rel=5e-3)
        # capital income cross-check: (delta+r) * K1 / N1
        assert x1 == pytest.approx(1.4821 * 33504.96 / 10.0, rel=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            dividends(1.0, 1.0, 1.0, 0.0, 0.0)


class TestSolveAtRate:
    def test_baseline_column(self, baseline_eq):
        eq = baseline_eq
        assert eq.y0 == pytest.approx(96492.12, rel=2e-3)
        assert eq.y1 == pytest.approx(99316.97, rel=2e-3)
        assert eq.l0 == pytest.approx(29320.0, rel=2e-3)
        assert eq.i0 == pytest.approx(33504.96, rel=2e-3)
        assert eq.C0 == pytest.approx(77935.89, rel=2e-3)
        assert eq.C1 == pytest.approx(77161.10, rel=2e-3)
        assert eq.tb0 == pytest.approx(-14948.74, rel=2e-3)
        assert not eq.l0_binding

    def test_higher_a1_column(self, baseline):
        eq = solve_at_rate(replace(baseline, a1=1.15), 0.4979)
        assert eq.y0 == pytest.approx(95891.88, rel=2e-3)
        assert eq.y1 == pytest.approx(113010.11, rel=2e-3)
        assert eq.l0 == pytest.approx(28956.36, rel=2e-3)
        assert eq.i0 == pytest.approx(37722.37, rel=2e-3)
        assert eq.C0 == pytest.approx(80161.13, rel=2e-3)
        assert eq.tb0 == pytest.approx(-21991.62, rel=2e-3)

    def test_walras_identity(self, baseline):
        for r in np.linspace(0.1, 1.0, 10):
            eq = solve_at_rate(baseline, r)
            assert abs(eq.tb0 + eq.tb1 / (1 + r)) <= 1e-9 * eq.y0

    def test_structural_invariants(self, baseline_eq, baseline):
        eq = baseline_eq
        assert eq.q > 1.0
        assert eq.i0 == eq.k1 - (1 - baseline.delta) * baseline.k0
        assert eq.l0 <= baseline.l0_max
        assert eq.l1 == baseline.l1_max

    def test_deterministic(self, baseline):
        assert solve_at_rate(baseline, 0.4821) == solve_at_rate(baseline, 0.4821)

    def test_baseline_closed_forms(self, baseline_eq):
        # the values the oracle classes above pin, read off the kernel
        eq = baseline_eq
        assert eq.q == pytest.approx(1.66799, abs=1e-4)
        assert eq.c1 / eq.c0 == pytest.approx(0.99005, abs=1e-4)
        assert eq.x0 == pytest.approx(1474.1, rel=5e-3)
        assert eq.x1 == pytest.approx(4965.85, rel=5e-3)
        assert eq.w1 == pytest.approx(0.168680, abs=1e-4)
        assert eq.T1 == 0.0

    def test_deferred_spending(self, baseline):
        eq = solve_at_rate(replace(baseline, g1=5.0), 0.5)
        assert eq.T1 == 5.0

    def test_inadmissible_rate(self, baseline):
        with pytest.raises(DomainError):
            solve_at_rate(baseline, -1.5)

    def test_underflowed_present_output(self, baseline):
        """a0 * L0 = 1e-349 underflows to 0, and with it y0 and w0: the
        ratio rows and the trade-share objective divide by y0."""
        tiny = model.with_parameters(baseline, {"k0": 1e-250, "a0": 1e-250,
                                                "l0_max": 1e-100})
        message = "present output must be positive; it is 0.0 at r={}"
        with pytest.raises(DomainError, match="^" + re.escape(
                message.format(0.5)) + "$"):
            solve_at_rate(tiny, 0.5)
        columns, errors = model.solve_rates(tiny, [0.3, 0.5])
        assert errors == [(0, message.format(0.3)), (1, message.format(0.5))]
        assert np.all(np.isnan(columns["y0"]))


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (DomainError, InfeasibleError) as exc:
        return type(exc), str(exc)


class TestValuePath:
    """model._values_at_rate, which the closures call, gives solve_at_rate's
    fields without the record, and checks that pass make no call."""

    @pytest.mark.parametrize("changes, r", [
        ({}, 0.4821),                                  # a solve
        ({}, -1.5),                                    # inadmissible
        ({"g0": 1e6}, 0.4821),                         # infeasible
        ({"alpha": 0.98, "delta": 0.1}, -0.09999999),  # ** raises
        ({"n0": 1e306}, 0.4821),                       # overflow rule
    ])
    def test_values_are_the_record_fields(self, baseline, changes, r):
        instance = replace(baseline, **changes)
        assert outcome(model._values_at_rate, instance, r) == outcome(
            lambda i, x: tuple(vars(solve_at_rate(i, x)).values()), instance, r)

    @pytest.fixture
    def rejects(self, monkeypatch):
        calls, reject = [], model._reject

        def spy(failed, error, message, *args):
            calls.append(message)
            reject(failed, error, message, *args)

        monkeypatch.setattr(model, "_FLOATS", model._FLOATS._replace(reject=spy))
        monkeypatch.setattr(model, "_reject", spy)
        return calls

    def test_passing_checks_make_no_call(self, baseline, rejects):
        solve_at_rate(baseline, 0.4821)
        model.check_rate(baseline, 0.4821)
        assert rejects == []
        model._values_at_rate(baseline, 0.4821)
        assert rejects == []

    def test_failing_check_calls_reject(self, baseline, rejects):
        with pytest.raises(DomainError, match="^inadmissible rate r=-1.5 "):
            solve_at_rate(baseline, -1.5)
        with pytest.raises(DomainError, match="^inadmissible rate r=nan "):
            model.check_rate(baseline, math.nan)
        assert len(rejects) == 2

    def test_passing_evaluation_makes_five_python_calls(self, baseline):
        # _values_at_rate, _system, the beta property, _check_rate, _clamp;
        # C functions such as operator.pow raise "c_call" events instead
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            model._values_at_rate(baseline, 0.4821)
        finally:
            sys.setprofile(None)
        assert len(calls) <= 5, calls

    @pytest.mark.parametrize("seed", range(40))
    def test_kernel_restates_its_helpers_bit_for_bit(self, seed):
        # _system writes capital demand and the Euler factor inline
        instance = sample_instance(np.random.default_rng(seed))
        if seed % 4 == 0:
            instance = replace(instance, gamma=1.0)
        rates = np.linspace(-instance.delta + 1e-6, 3.0, 25)
        L1 = instance.n1 * instance.l1_max
        columns, errors = model.solve_rates(instance, rates)
        failed = {j for j, _ in errors}
        assert len(failed) < len(rates)
        k1 = model._capital_demand(instance, L1, rates, np.float_power)
        growth = model._euler_factor(instance, rates, np.float_power)
        for j, r in enumerate(rates.tolist()):
            if j in failed:
                continue
            eq = solve_at_rate(instance, r)
            assert eq.k1 == capital_demand(instance, L1, r) == columns["k1"][j]
            assert columns["k1"][j] == k1[j]
            assert eq.c1 == eq.c0 * model._euler_factor(instance, r, operator.pow)
            assert columns["c1"][j] == columns["c0"][j] * growth[j]


class TestSavingDecomposition:
    def test_baseline(self, baseline_eq):
        s0n, s1x = baseline_eq.s0n, baseline_eq.s1x
        assert s0n == pytest.approx(18556.0, rel=5e-3)
        assert s1x == pytest.approx(14949.0, rel=5e-3)

    def test_autarky(self, baseline):
        spec = ClosureSpec(kind="balanced_trade", bracket=(0.4821, 2.0))
        r_star, _ = resolve_rate(baseline, spec)
        eq = solve_at_rate(baseline, r_star)
        s0n, s1x = eq.s0n, eq.s1x
        assert abs(s1x) <= 1e-9 * eq.y0
        assert s0n == pytest.approx(eq.i0, rel=1e-9)

    def test_higher_rho(self, baseline):
        eq = solve_at_rate(replace(baseline, rho=0.575), 0.5560)
        assert eq.s1x == pytest.approx(11359.92, rel=5e-3)

    def test_identity(self, baseline_eq):
        s0n, s1x = baseline_eq.s0n, baseline_eq.s1x
        assert s0n + s1x == pytest.approx(baseline_eq.i0, rel=1e-12)


class TestWelfare:
    def test_unit_consumption(self):
        instance = replace(BASE, gamma=2.0, rho=1.0)
        assert lifetime_utility(1.0, 0.0, 1.0, 0.0, instance) == pytest.approx(-1.5)

    def test_log_limit(self):
        # levels carry a 1/(1-gamma) constant, so continuity at gamma = 1
        # holds for utility differences (the constant cancels)
        for eps in (1e-6, -1e-6):
            log_prefs = replace(BASE, gamma=1.0)
            near_prefs = replace(BASE, gamma=1.0 + eps)
            diff_log = (lifetime_utility(2.0, 0.5, 3.0, 0.4, log_prefs)
                        - lifetime_utility(5.0, 0.5, 7.0, 0.4, log_prefs))
            diff_near = (lifetime_utility(2.0, 0.5, 3.0, 0.4, near_prefs)
                         - lifetime_utility(5.0, 0.5, 7.0, 0.4, near_prefs))
            assert diff_log == pytest.approx(diff_near, abs=1e-5)

    def test_monotone_decreasing_in_r(self, baseline):
        # the home economy borrows in the present period, so a higher rate hurts
        rates = np.linspace(0.43, 0.53, 11)
        values = [solve_at_rate(baseline, r).welfare for r in rates]
        assert all(math.isfinite(v) for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_welfare_matches_equilibrium_field(self, baseline, baseline_eq):
        eq = baseline_eq
        assert eq.welfare == lifetime_utility(eq.c0, eq.l0, eq.c1, eq.l1,
                                              baseline)

    def test_domain(self):
        with pytest.raises(DomainError):
            lifetime_utility(-1.0, 0.0, 1.0, 0.0, BASE)


class TestAnnualize:
    def test_baseline_rate(self):
        assert annualize_rate(0.4821, 16) == pytest.approx(0.0249, abs=5e-4)
        assert round(annualize_rate(0.4821, 16), 4) == 0.0249

    def test_zero(self):
        for years in (1, 16, 50):
            assert annualize_rate(0.0, years) == 0.0

    def test_discount_rate(self):
        assert annualize_rate(0.5, 16) == pytest.approx(0.02566, abs=1e-5)
        assert round(annualize_rate(0.5, 16), 3) == 0.026

    def test_domain(self):
        with pytest.raises(DomainError):
            annualize_rate(-1.0, 16)
        with pytest.raises(DomainError):
            annualize_rate(0.5, 0)

    @pytest.mark.parametrize("years", [1e-300, 5e-324])
    def test_overflow(self, years):
        with pytest.raises(DomainError, match="^per-year rate overflows at "
                           f"r=0.4821 over {years} years$"):
            annualize_rate(0.4821, years)
        assert annualize_rate(-0.5, years) == -1.0


def test_oracle_imports_nothing_from_the_kernel():
    """reference_model takes the instance and imports only the error type
    and the record from the package, so its equations are its own."""
    tree = ast.parse(open(reference_model.__file__).read())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {(getattr(node, "module", None), alias.name)
             for node in imports for alias in node.names}
    assert names == {(None, "math"), ("openecon", "DomainError"),
                     ("openecon", "ModelInstance")}


POSITIVE = "gamma, theta, rho, phi must all be positive"
ENDOWMENTS = "household counts and time endowments must be positive"


class TestValidation:
    def test_preferences(self):
        with pytest.raises(DomainError):
            replace(BASE, gamma=0.0)
        with pytest.raises(DomainError):
            replace(BASE, rho=-0.1)
        assert 0.0 < BASE.beta < 1.0

    def test_technology(self):
        with pytest.raises(DomainError):
            replace(BASE, alpha=1.0)
        with pytest.raises(DomainError):
            replace(BASE, delta=1.5)

    def test_demography(self):
        with pytest.raises(DomainError):
            replace(BASE, n0=0.0, l0_max=1.0, l1_max=1.0)

    def test_fiscal(self):
        with pytest.raises(DomainError):
            replace(BASE, g0=-1.0)

    def test_instance(self, baseline):
        with pytest.raises(DomainError):
            replace(baseline, k0=0.0)
        with pytest.raises(DomainError):
            replace(baseline, years_per_period=0.0)

    # One bad value per field, with the message the checks gave when the
    # parameters were split over four records.
    @pytest.mark.parametrize("name, value, message", [
        ("gamma", 0.0, POSITIVE), ("gamma", math.inf, "gamma must be finite"),
        ("theta", -1.0, POSITIVE), ("theta", math.inf, "theta must be finite"),
        ("rho", math.nan, POSITIVE), ("rho", math.inf, "rho must be finite"),
        ("phi", 0.0, POSITIVE), ("phi", math.inf, "phi must be finite"),
        ("alpha", 1.0, "alpha must lie in (0, 1)"),
        ("alpha", math.nan, "alpha must lie in (0, 1)"),
        ("delta", 1.5, "delta must lie in (0, 1]"),
        ("delta", math.inf, "delta must lie in (0, 1]"),
        ("a0", 0.0, "labor efficiencies must be positive"),
        ("a0", math.inf, "a0 must be finite"),
        ("a1", -1.0, "labor efficiencies must be positive"),
        ("a1", math.inf, "a1 must be finite"),
        ("n0", 0.0, ENDOWMENTS), ("n0", math.inf, "n0 must be finite"),
        ("n1", math.nan, ENDOWMENTS), ("n1", math.inf, "n1 must be finite"),
        ("l0_max", -1.0, ENDOWMENTS), ("l0_max", math.inf, "l0_max must be finite"),
        ("l1_max", 0.0, ENDOWMENTS), ("l1_max", math.inf, "l1_max must be finite"),
        ("g0", -1.0, "government purchases must be non-negative"),
        ("g0", math.nan, "g0 must be finite"),
        ("g1", -math.inf, "government purchases must be non-negative"),
        ("g1", math.inf, "g1 must be finite"),
        ("t0", -math.inf, "t0 must be finite"), ("t0", math.nan, "t0 must be finite"),
        ("k0", 0.0, "initial capital k0 must be positive"),
        ("k0", math.inf, "k0 must be finite"),
        ("years_per_period", -16.0, "years_per_period must be positive"),
        ("years_per_period", math.nan, "years_per_period must be finite"),
    ])
    def test_each_field_message(self, name, value, message):
        with pytest.raises(DomainError) as info:
            model.with_parameters(BASE, {name: value})
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            model.check_parameter(name, value)
        assert str(info.value) == message

    def test_first_bad_field_in_check_order(self):
        # gamma is checked before alpha, whatever order the values come in
        with pytest.raises(DomainError, match=f"^{POSITIVE}$"):
            model.with_parameters(BASE, {"alpha": 3.0, "gamma": -1.0})
        # and every range check before the finiteness check
        with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\)$"):
            model.with_parameters(BASE, {"gamma": math.inf, "alpha": 3.0})

    def test_keywords_only(self):
        values = [getattr(BASE, name) for name in ModelInstance.__dataclass_fields__]
        with pytest.raises(TypeError):
            ModelInstance(*values)

    def test_with_parameters_builds_the_checked_record(self):
        changed = model.with_parameters(BASE, {"alpha": 0.4, "rho": 0.6})
        built = replace(BASE, alpha=0.4, rho=0.6)
        assert changed == built and hash(changed) == hash(built)
        assert model.with_parameters(BASE, {}) is BASE
        with pytest.raises(DomainError, match="^k0 must be finite$"):
            model.with_parameters(changed, {"k0": math.nan})


FIELDS = list(ModelInstance.__dataclass_fields__)


def assert_same_instance(instance, twin):
    """instance, built by with_parameters, behaves as twin, built by the
    dataclass's generated __init__: equality, hash, repr, replace, copies,
    pickling and frozen fields; neither has a __dict__, which would slow
    every field read in the kernel."""
    assert type(instance) is ModelInstance
    assert instance == twin and twin == instance
    assert hash(instance) == hash(twin)
    assert repr(instance) == repr(twin)
    assert replace(instance, rho=0.6) == replace(twin, rho=0.6)
    for other in (copy.copy(instance), pickle.loads(pickle.dumps(instance))):
        assert type(other) is ModelInstance
        assert repr(other) == repr(twin)
    with pytest.raises(FrozenInstanceError):
        instance.rho = 0.6
    with pytest.raises(FrozenInstanceError):
        del instance.k0
    assert instance == twin
    for record in (instance, twin):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)
        with pytest.raises(TypeError):
            weakref.ref(record)


class TestCopy:
    """with_parameters copies the record and checks only what it changes."""

    @pytest.mark.parametrize("values", [
        {"phi": 1.3}, {"rho": 0.6, "a1": 1.2}, {"k0": 2.0, "gamma": 3.0},
        dict(zip(FIELDS, (getattr(BASE, f) * 0.99 for f in FIELDS))),
    ])
    def test_same_record_as_replace(self, values):
        assert_same_instance(model.with_parameters(BASE, values),
                             replace(BASE, **values))


# Valid in every field, each rule's boundary, and the non-finite values.
EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]
parameter_values = st.one_of(st.sampled_from(EDGES), st.floats(0.01, 0.99),
                             st.floats())
changes = st.dictionaries(st.sampled_from(FIELDS), parameter_values)


def built(fn, *args, **kwargs):
    """repr of the record fn builds, or the type and message it raises."""
    try:
        return repr(fn(*args, **kwargs))
    except (DomainError, TypeError) as exc:
        return type(exc), str(exc)


@given(values=changes)
@settings(max_examples=400, deadline=None)
def test_with_parameters_is_replace(values):
    """The same record, or the same DomainError message, whatever fields
    change, in whatever order the dict gives them."""
    assert built(model.with_parameters, BASE, values) \
        == built(replace, BASE, **values)


@given(values=changes, at=st.integers(0, 17))
@settings(max_examples=100, deadline=None)
def test_unknown_field_raises_type_error_from_both(values, at):
    """Before any value is checked, wherever the unknown key stands."""
    items = list(values.items())
    items.insert(min(at, len(items)), ("sigma", 1.0))
    assert built(replace, BASE, **dict(items))[0] is TypeError
    assert built(model.with_parameters, BASE, dict(items)) \
        == (TypeError, "ModelInstance has no field 'sigma'")

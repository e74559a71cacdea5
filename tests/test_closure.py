"""Closure rules: root finding, sweeps, stationarity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openecon import (BracketError, ClosureSpec, ConvergenceError, DomainError,
                      InfeasibleError, calibrated_labor_weight, resolve_rate,
                      solve_at_rate, welfare_stationarity_check)
from openecon import closure as closure_mod
from openecon import model
from openecon.acceptance import sample_instance
from reference_model import lifetime_utility

# balanced_trade on the baseline over (0.4821, 2.0), as plain bisection found it
BISECTION_RATE = 0.7483044201658339


class TestBalancedTrade:
    def test_zeroes_both_trade_balances(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 1.2))
        r, diag = resolve_rate(baseline, spec)
        eq = solve_at_rate(baseline, r)
        assert abs(eq.tb0) <= 1e-10 * eq.y0
        # Walras: the future balance vanishes with the present one
        assert abs(eq.tb1) <= 1e-8 * eq.y1

    def test_root_location(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        r, _ = resolve_rate(baseline, spec)
        assert r == pytest.approx(0.748304, abs=1e-4)

    def test_iteration_bound(self, baseline):
        lo, hi = 0.4821, 2.0
        spec = ClosureSpec("balanced_trade", bracket=(lo, hi))
        _, diag = resolve_rate(baseline, spec)
        bound = math.ceil(math.log2((hi - lo) / 1e-10)) + 2
        assert diag.iterations <= bound

    def test_bracket_error(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.8, 1.2))
        with pytest.raises(BracketError):
            resolve_rate(baseline, spec)

    def test_convergence_error(self, baseline, monkeypatch):
        monkeypatch.setattr(closure_mod, "MAX_ITERATIONS", 1)
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        with pytest.raises(ConvergenceError,
                           match="^no convergence after 1 root-finding steps$"):
            resolve_rate(baseline, spec)

    def test_convergence_error_is_a_value_error(self, baseline, monkeypatch):
        """Every refusal is a ValueError, so one except clause catches all."""
        monkeypatch.setattr(closure_mod, "MAX_ITERATIONS", 1)
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        try:
            resolve_rate(baseline, spec)
        except ValueError as exc:
            assert type(exc) is ConvergenceError
        else:
            pytest.fail("resolve_rate converged in one step")


def test_headline_claim_on_sampled_economies():
    """The paper's claim, on the model: a higher discount rate rho or a
    higher expected efficiency a1 raises the balanced-trade rate r*, and a
    higher a1 raises the future wage w1, on every sampled economy where the
    closure resolves before and after the x1.15 change.  The present wage
    w0 does not follow "wages rise" (see README).  The resolve counts are
    pinned, so a change in the closure's coverage shows here."""
    spec = ClosureSpec("balanced_trade")

    def balanced(instance):
        try:
            r, _ = resolve_rate(instance, spec)
        except (BracketError, InfeasibleError):
            return None
        return solve_at_rate(instance, r)

    rng = np.random.default_rng(12345)
    resolved = {"base": 0, "rho": 0, "a1": 0}
    for _ in range(435):
        instance = sample_instance(rng)
        base = balanced(instance)
        if base is None:
            continue
        resolved["base"] += 1
        for name in ("rho", "a1"):
            up = balanced(model.with_parameters(
                instance, {name: getattr(instance, name) * 1.15}))
            if up is None:
                continue
            resolved[name] += 1
            assert up.r > base.r, (name, instance)
            if name == "a1":
                assert up.w1 > base.w1, instance
    assert resolved == {"base": 300, "rho": 293, "a1": 273}


class TestTradeShareTarget:
    def test_round_trip_to_published_rate(self, baseline):
        eq = solve_at_rate(baseline, 0.4821)
        share = eq.tb0 / eq.y0
        spec = ClosureSpec("trade_share_target", target_share=share,
                           bracket=(0.1, 1.5))
        r, diag = resolve_rate(baseline, spec)
        assert r == pytest.approx(0.4821, abs=1e-4)
        assert abs(diag.residual) <= 1e-10

    def test_requires_target(self):
        with pytest.raises(ValueError):
            ClosureSpec("trade_share_target")


@pytest.mark.parametrize("spec", [
    ClosureSpec("balanced_trade"),
    ClosureSpec("trade_share_target", target_share=-0.1)])
def test_root_meets_the_tolerance(baseline, spec):
    """A root-finding rate leaves at most TOLERANCE of tb0/y0 off its
    target, and the diagnostics report what is left."""
    r, diag = resolve_rate(baseline, spec)
    eq = solve_at_rate(baseline, r)
    miss = eq.tb0 / eq.y0 - (spec.target_share or 0.0)
    assert abs(miss) <= closure_mod.TOLERANCE
    assert diag.residual == (eq.tb0 if spec.target_share is None else miss)


class TestWelfareSweep:
    def test_tie_breaks_to_lowest_rate(self, baseline, monkeypatch):
        def flat(instance, rates):
            return {"welfare": np.ones(len(rates))}, []

        monkeypatch.setattr(closure_mod, "solve_rates", flat)
        spec = ClosureSpec("welfare_sweep", grid=(0.9, 0.3, 0.6))
        r, _ = resolve_rate(baseline, spec)
        assert r == 0.3

    def test_grid_order_invariance(self, baseline):
        grid = (0.3, 0.45, 0.6, 0.75, 0.9)
        a, _ = resolve_rate(baseline, ClosureSpec("welfare_sweep", grid=grid))
        b, _ = resolve_rate(baseline,
                            ClosureSpec("welfare_sweep", grid=grid[::-1]))
        assert a == b

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            ClosureSpec("welfare_sweep")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ClosureSpec("magic")

    def test_a_given_rate_is_no_closure(self):
        """A given rate is solved at directly: `fixed` is no kind, and no
        ClosureSpec field holds a rate."""
        with pytest.raises(ValueError, match="^unknown closure kind 'fixed'$"):
            ClosureSpec("fixed")
        with pytest.raises(TypeError):
            ClosureSpec("balanced_trade", fixed_rate=0.5)

    @pytest.mark.parametrize("kind", ["balanced_trade", "welfare_sweep"])
    def test_target_beside_another_kind(self, kind):
        with pytest.raises(ValueError,
                           match=f"^{kind} closure takes no target_share$"):
            ClosureSpec(kind, target_share=0.1, grid=(0.3, 0.5))

    @pytest.mark.parametrize("kind, target", [("balanced_trade", None),
                                              ("trade_share_target", 0.1)])
    def test_grid_beside_another_kind(self, kind, target):
        with pytest.raises(ValueError, match=f"^{kind} closure takes no rate grid$"):
            ClosureSpec(kind, target_share=target, grid=(0.3, 0.5))

    @pytest.mark.parametrize("kind, inputs, message", [
        ("trade_share_target", dict(grid=(0.3,)),
         "trade_share_target closure needs target_share"),
        ("welfare_sweep", dict(bracket=(0.1, 0.2)),
         "welfare_sweep closure takes no bracket"),
        ("welfare_sweep", dict(target_share=0.1, bracket=(0.1, 0.2)),
         "welfare_sweep closure takes no target_share"),
        ("balanced_trade", dict(bracket=(2.0, 1.0), grid=(0.3,)),
         "balanced_trade closure takes no rate grid"),
        ("trade_share_target", dict(target_share=math.nan,
                                    bracket=(math.nan, 1.0)),
         "bracket ends must be finite"),
    ])
    def test_two_faults_raise_the_first_rule(self, kind, inputs, message):
        """The rules run in order: target_share, bracket, grid, then the
        finiteness and order checks."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClosureSpec(kind, **inputs)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            ClosureSpec("balanced_trade", bracket=(1.0, 0.5))

    @pytest.mark.parametrize("bracket", [(0.01, math.inf), (-math.inf, 2.0),
                                         (math.nan, 2.0), (0.01, math.nan)])
    def test_non_finite_bracket(self, bracket):
        with pytest.raises(ValueError):
            ClosureSpec("balanced_trade", bracket=bracket)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, target):
        with pytest.raises(ValueError, match="^target_share must be finite$"):
            ClosureSpec("trade_share_target", target_share=target)

    def test_max_iterations_is_a_constant(self):
        assert ClosureSpec("balanced_trade").max_iterations == 200
        assert ClosureSpec.max_iterations == closure_mod.MAX_ITERATIONS == 200
        with pytest.raises(TypeError):
            ClosureSpec("balanced_trade", max_iterations=50)

    def test_tolerance_is_a_constant(self):
        assert ClosureSpec("balanced_trade").tolerance == 1e-10
        assert ClosureSpec.tolerance == closure_mod.TOLERANCE == 1e-10
        with pytest.raises(TypeError):
            ClosureSpec("balanced_trade", tolerance=1e-8)

    def test_root_finding_input_beside_welfare_sweep(self):
        with pytest.raises(ValueError,
                           match="^welfare_sweep closure takes no bracket$"):
            ClosureSpec("welfare_sweep", grid=(0.3, 0.5), bracket=(0.1, 0.2))

    @pytest.mark.parametrize("kind, target", [("balanced_trade", None),
                                              ("trade_share_target", 0.1)])
    def test_unset_inputs_take_their_defaults(self, kind, target):
        spec = ClosureSpec(kind, target_share=target)
        assert (spec.bracket, spec.tolerance, spec.grid) == ((0.01, 2.0), 1e-10, ())

    def test_welfare_sweep_reads_only_its_grid(self):
        spec = ClosureSpec("welfare_sweep", grid=(0.3, 0.5))
        assert (spec.bracket, spec.target_share) == (None, None)

    @pytest.mark.parametrize("grid", [(0.3, math.nan), (math.inf,),
                                      (-math.inf, 0.5)])
    def test_non_finite_grid(self, grid):
        with pytest.raises(ValueError, match="^grid rates must be finite$"):
            ClosureSpec("welfare_sweep", grid=grid)

    def test_keeps_its_own_bracket_and_grid(self, baseline):
        """Editing the caller's list after the checks changes nothing: the
        spec holds tuples."""
        bracket, grid = [0.4821, 2.0], [0.3, 0.5]
        balanced = ClosureSpec("balanced_trade", bracket=bracket)
        sweep = ClosureSpec("welfare_sweep", grid=grid)
        bracket[1] = math.nan
        grid.append(math.inf)
        assert (balanced.bracket, sweep.grid) == ((0.4821, 2.0), (0.3, 0.5))
        assert resolve_rate(baseline, balanced) == resolve_rate(
            baseline, ClosureSpec("balanced_trade", bracket=(0.4821, 2.0)))
        assert resolve_rate(baseline, sweep)[1].evaluations == 2


class TestNoRecords:
    """Root finding, the labor-weight calibration and the stationarity probe
    read the kernel's values and build no Equilibrium record."""

    @pytest.fixture
    def built(self, monkeypatch):
        built, equilibrium = [], model._equilibrium

        def spy(*values):
            built.append(values)
            return equilibrium(*values)

        monkeypatch.setattr(model, "_equilibrium", spy)
        return built

    @pytest.mark.parametrize("spec", [
        ClosureSpec("balanced_trade", bracket=(0.4821, 2.0)),
        ClosureSpec("trade_share_target", target_share=-0.05)])
    def test_resolve_rate(self, baseline, built, spec):
        _, diag = resolve_rate(baseline, spec)
        assert diag.evaluations > 2
        assert built == []

    def test_calibration_and_stationarity(self, baseline, built):
        calibrated_labor_weight(baseline, 0.4821)
        welfare_stationarity_check(baseline, 0.4821)
        assert built == []
        solve_at_rate(baseline, 0.4821)
        assert len(built) == 1      # the spy sees the one record that is built


class TestWelfareStationarity:
    def test_negative_at_published_rate(self, baseline):
        assert welfare_stationarity_check(baseline, 0.4821) < 0

    def test_near_zero_at_balanced_trade(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        r_star, _ = resolve_rate(baseline, spec)
        res = welfare_stationarity_check(baseline, r_star)
        assert abs(res) <= 1e-6

    def test_calibrated_weight_makes_hours_level_optimal(self, baseline):
        r = 0.4821
        phi = calibrated_labor_weight(baseline, r)
        eq = solve_at_rate(baseline, r)
        assert phi * eq.l0 ** baseline.theta == pytest.approx(
            eq.c0 ** (-baseline.gamma) * eq.w0, rel=1e-12)

    def test_step_is_a_constant(self, baseline):
        assert closure_mod.STEP == 1e-4
        with pytest.raises(TypeError):
            welfare_stationarity_check(baseline, 0.5, 1e-4)

    def test_rate_within_a_step_of_minus_one(self, baseline):
        """The probe at r_star - STEP meets the rate rule r > -1."""
        with pytest.raises(DomainError, match=r"^inadmissible rate r=-1\.00005 "):
            welfare_stationarity_check(baseline, -0.99995)

    def test_matches_oracle_difference_bit_for_bit(self):
        """The check reads the kernel's welfare under the calibrated weight;
        the oracle's utility of the same equilibria gives the same bits on
        200 sampled economies (all of which solve)."""
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(200):
            instance = sample_instance(rng)
            r = rng.uniform(0.1, 1.0)
            calibrated = replace(instance,
                                 phi=calibrated_labor_weight(instance, r))

            def u(x):
                eq = solve_at_rate(instance, x)
                return lifetime_utility(eq.c0, eq.l0, eq.c1, eq.l1, calibrated)

            assert welfare_stationarity_check(instance, r) == \
                (u(r + h) - u(r - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# ITP root finding against the plain bisection it replaced
# ---------------------------------------------------------------------------

def reference_bisect(objective, lo, hi, max_iterations):
    """The replaced `closure._bisect`, without its diagnostics."""
    f_lo, done = objective(lo)
    if done:
        return lo
    f_hi, done = objective(hi)
    if done:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError("same sign at both bracket ends")
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        f_mid, done = objective(mid)
        if done:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise ConvergenceError(f"no convergence after {max_iterations} steps")


def closure_objective(instance, spec):
    """`resolve_rate`'s objective for a root-finding spec: (value, done)."""
    def objective(r):
        eq = solve_at_rate(instance, r)
        if spec.kind == "balanced_trade":
            return eq.tb0, abs(eq.tb0) <= closure_mod.TOLERANCE * eq.y0
        f = eq.tb0 / eq.y0 - spec.target_share
        return f, abs(f) <= closure_mod.TOLERANCE
    return objective


class TestFindRoot:
    def test_baseline_evaluations(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        r, diag = resolve_rate(baseline, spec)
        assert diag.evaluations <= 10
        assert abs(r - BISECTION_RATE) <= 1e-9

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lo=st.floats(0.01, 1.99), span=st.floats(1e-3, 1.0),
           target=st.one_of(st.none(), st.floats(-0.6, 0.3)))
    # the target share at lo = 0.8, then at hi = 1.4: a root at each end
    @example(seed=0, lo=0.8, span=0.5, target=-0.18496200813564745)
    @example(seed=0, lo=0.8, span=0.5, target=0.2088538090111398)
    def test_agrees_with_bisection(self, seed, lo, span, target):
        instance = sample_instance(np.random.default_rng(seed))
        hi = min(lo + span * (2.0 - lo), 2.0)
        spec = (ClosureSpec("balanced_trade", bracket=(lo, hi))
                if target is None else
                ClosureSpec("trade_share_target", target_share=target,
                            bracket=(lo, hi)))
        objective = closure_objective(instance, spec)
        try:
            reference_bisect(objective, lo, hi, closure_mod.MAX_ITERATIONS)
        except BracketError:
            with pytest.raises(BracketError):
                resolve_rate(instance, spec)
            return
        except (DomainError, InfeasibleError):
            pass

        tried = []

        def recording_solve(inst, r):
            tried.append(r)
            return model._values_at_rate(inst, r)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closure_mod, "_values_at_rate", recording_solve)
            try:
                r, diag = resolve_rate(instance, spec)
            except (DomainError, InfeasibleError):
                # a rate inside the bracket really has no equilibrium
                assert lo <= tried[-1] <= hi
                return
        assert lo <= r <= hi
        assert objective(r)[1]
        assert diag.evaluations == len(tried)
        if objective(lo)[1]:
            assert (diag.evaluations, diag.iterations) == (1, 0)
        elif objective(hi)[1]:
            assert (diag.evaluations, diag.iterations) == (2, 0)
        else:
            assert diag.evaluations == diag.iterations + 2
        assert_minmax([(x, objective(x)[0]) for x in tried[2:]],
                      lo, hi, objective(lo)[0])

    @settings(max_examples=300, deadline=None)
    @given(log_power=st.floats(-4.0, 4.0), root=st.floats(0.001, 0.999),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_minmax_on_skewed_curves(self, log_power, root, sign):
        # x^p - root^p with p far from 1 is where regula falsi stalls; the
        # projection step must still shrink the bracket like bisection.
        power = math.exp(log_power)

        def objective(x):
            f = sign * (x ** power - root ** power)
            return f, abs(f) <= 1e-13

        tried = []

        def recording(x):
            value = objective(x)
            tried.append((x, value[0]))
            return value

        try:
            _, _, _, evaluations = closure_mod._find_root(recording, 0.0, 1.0)
            assert evaluations == len(tried)
        except ConvergenceError:
            pass      # the bracket shrank to adjacent floats first
        assert_minmax(tried[2:], 0.0, 1.0, objective(0.0)[0])

    def test_evaluations_on_random_economies(self):
        rng = np.random.default_rng(20260824)
        evaluations = []
        while len(evaluations) < 200:
            instance = sample_instance(rng)
            try:
                _, diag = resolve_rate(instance, ClosureSpec("balanced_trade"))
            except (BracketError, InfeasibleError):
                continue
            evaluations.append(diag.evaluations)
        assert max(evaluations) <= 12
        assert sum(evaluations) / len(evaluations) <= 10.0


def assert_minmax(steps, lo, hi, f_lo):
    """Rebuilt from the (x, f(x)) of each step, the bracket after j steps
    is at most 2^(2-j) times as wide as [lo, hi], and every step lies
    inside it."""
    # A projected step meets the bound with equality, so rounding in the
    # midpoint and the radius may exceed it by a few ulps.
    slack = 4 * math.ulp(max(abs(lo), abs(hi)))
    a, b = lo, hi
    for j, (x, f_x) in enumerate(steps, start=1):
        assert a <= x <= b
        if math.copysign(1.0, f_x) == math.copysign(1.0, f_lo):
            a, f_lo = x, f_x
        else:
            b = x
        assert b - a <= (hi - lo) * 2.0 ** (2 - j) + slack

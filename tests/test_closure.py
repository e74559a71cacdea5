"""Closure rules: fixed pass-through, root finding, sweeps, stationarity."""

import math

import numpy as np
import pytest

from openecon import (BracketError, ClosureSpec, ConvergenceError,
                      calibrated_labor_weight, resolve_rate, solve_at_rate,
                      welfare_stationarity_check)
from openecon import closure as closure_mod


class TestFixed:
    def test_identity(self, baseline):
        r, diag = resolve_rate(baseline, ClosureSpec("fixed", fixed_rate=0.4821))
        assert r == 0.4821
        assert diag.converged
        assert diag.evaluations == 0

    def test_never_touches_model(self, baseline, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("fixed closure must not solve the model")

        monkeypatch.setattr(closure_mod, "solve_at_rate", boom)
        r, _ = resolve_rate(baseline, ClosureSpec("fixed", fixed_rate=0.7))
        assert r == 0.7

    def test_requires_rate(self):
        with pytest.raises(ValueError):
            ClosureSpec("fixed")


class TestBalancedTrade:
    def test_zeroes_both_trade_balances(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 1.2))
        r, diag = resolve_rate(baseline, spec)
        eq = solve_at_rate(baseline, r)
        assert abs(eq.tb0) <= 1e-10 * eq.y0
        # Walras: the future balance vanishes with the present one
        assert abs(eq.tb1) <= 1e-8 * eq.y1
        assert diag.converged

    def test_root_location(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0))
        r, _ = resolve_rate(baseline, spec)
        assert r == pytest.approx(0.748304, abs=1e-4)

    def test_iteration_bound(self, baseline):
        lo, hi = 0.4821, 2.0
        spec = ClosureSpec("balanced_trade", bracket=(lo, hi), tolerance=1e-10)
        _, diag = resolve_rate(baseline, spec)
        bound = math.ceil(math.log2((hi - lo) / 1e-10)) + 2
        assert diag.iterations <= bound

    def test_bracket_error(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.8, 1.2))
        with pytest.raises(BracketError):
            resolve_rate(baseline, spec)

    def test_convergence_error(self, baseline):
        spec = ClosureSpec("balanced_trade", bracket=(0.4821, 2.0),
                           tolerance=1e-10, max_iterations=3)
        with pytest.raises(ConvergenceError):
            resolve_rate(baseline, spec)


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

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            ClosureSpec("balanced_trade", bracket=(1.0, 0.5))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            ClosureSpec("balanced_trade", tolerance=0.0)


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
        p = baseline.preferences
        assert phi * eq.l0 ** p.theta == pytest.approx(
            eq.c0 ** (-p.gamma) * eq.w0, rel=1e-12)

    def test_bad_step(self, baseline):
        with pytest.raises(ValueError):
            welfare_stationarity_check(baseline, 0.5, h=0.0)

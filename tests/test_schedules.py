"""Saving/investment schedules in both construction modes."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from openecon import compute_schedules, solve_rates
from openecon import model
from openecon.schedules import MODES, default_grid
from reference_model import check_rate

GRID = np.linspace(0.30, 0.70, 41)
R_REF = 0.4821


def slopes(curve):
    """d(S0N + S1X)/dr and dI0/dr on each grid segment."""
    d_r = np.diff(curve.grid)
    return np.diff(curve.s0n + curve.s1x) / d_r, np.diff(curve.i0) / d_r


class TestFullEquilibrium:
    def test_investment_strictly_decreasing(self, baseline):
        curve = compute_schedules(baseline, GRID)
        assert np.all(np.diff(curve.i0) < 0)

    def test_residual_tiny_everywhere(self, baseline):
        curve = compute_schedules(baseline, GRID)
        y0 = solve_rates(baseline, GRID)[0]["y0"]
        assert np.all(np.abs(curve.residual) <= 1e-9 * y0)

    def test_external_saving_strictly_decreasing(self, baseline):
        curve = compute_schedules(baseline, GRID)
        assert np.all(np.diff(curve.s1x) < 0)

    def test_no_flagged_segments(self, baseline):
        """Nothing to flag: the saving sum tracks I0 identically."""
        saving_sum_slope, i0_slope = slopes(compute_schedules(baseline, GRID))
        assert np.all(i0_slope < 0)
        assert np.allclose(saving_sum_slope, i0_slope, rtol=1e-12, atol=0)


class TestPartial:
    def test_coincides_with_full_at_reference(self, baseline):
        grid = np.array([R_REF - 0.1, R_REF, R_REF + 0.1])
        partial = compute_schedules(baseline, grid, mode="partial", r_ref=R_REF)
        full = compute_schedules(baseline, grid)
        y0 = solve_rates(baseline, grid)[0]["y0"]
        j = 1
        assert partial.i0[j] == pytest.approx(full.i0[j], rel=1e-12)
        assert partial.s0n[j] == pytest.approx(full.s0n[j], rel=1e-10)
        assert partial.s1x[j] == pytest.approx(full.s1x[j], rel=1e-10)
        assert abs(partial.residual[j]) <= 1e-8 * y0[j]

    def test_residual_changes_sign_at_reference(self, baseline):
        curve = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        below = curve.residual[curve.grid < R_REF - 1e-9]
        above = curve.residual[curve.grid > R_REF + 1e-9]
        assert np.sign(below[-1]) != np.sign(above[0])

    def test_crossing_geometry_slopes(self, baseline):
        curve = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        saving_sum_slope, i0_slope = slopes(curve)
        # saving sum rises through r_ref and on every segment, investment
        # falls everywhere: the crossing's local-stability condition
        midpoints = 0.5 * (GRID[:-1] + GRID[1:])
        near = np.abs(midpoints - R_REF) < 0.05
        assert np.count_nonzero(near) == 10
        assert np.all(saving_sum_slope[near] > 0)
        assert np.all(saving_sum_slope > 0)
        assert np.all(i0_slope < 0)

    def test_needs_reference_rate(self, baseline):
        with pytest.raises(ValueError):
            compute_schedules(baseline, GRID, mode="partial")
        with pytest.raises(ValueError):
            compute_schedules(baseline, GRID, mode="partial", r_ref=0.9)


class TestValidationAndFlagging:
    def test_bad_grid(self, baseline):
        with pytest.raises(ValueError):
            compute_schedules(baseline, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            compute_schedules(baseline, np.array([]))
        with pytest.raises(ValueError):
            compute_schedules(baseline, GRID, mode="sideways")

    @pytest.mark.parametrize("grid", [[0.5, math.nan, 0.4], [0.4, math.nan],
                                      [math.nan, 0.4, 0.5], [0.4, 0.5, math.nan]])
    def test_nan_in_grid(self, baseline, grid):
        """A NaN compares false both ways, so it cannot hide a decrease."""
        for mode in MODES:
            with pytest.raises(ValueError,
                               match="^grid must be strictly increasing$"):
                compute_schedules(baseline, grid, mode=mode, r_ref=0.45)

    def test_inadmissible_points_are_flagged(self, baseline):
        soft = replace(baseline, delta=0.6)
        grid = np.linspace(-0.7, 0.5, 13)  # first points give delta + r <= 0
        curve = compute_schedules(soft, grid)
        assert curve.errors
        bad = [j for j, _ in curve.errors]
        assert bad and np.all(np.isnan(curve.i0[bad]))
        good = [j for j in range(grid.size) if j not in bad]
        assert np.all(np.isfinite(curve.i0[good]))

    def test_partial_errors_in_index_order(self, baseline):
        """Inadmissible and overflowing points both become NaN errors."""
        steep = replace(baseline, alpha=0.98, delta=0.1)
        grid = np.array([-0.2, -0.1, -0.09999999, 10.0])
        curve = compute_schedules(steep, grid, mode="partial", r_ref=10.0)
        assert [j for j, _ in curve.errors] == [0, 1, 2]
        assert curve.errors[0][1].startswith("inadmissible rate r=-0.2")
        assert curve.errors[1][1].startswith("inadmissible rate r=-0.1")
        assert curve.errors[2][1] == "numerical overflow at r=-0.09999999"
        for values in (curve.i0, curve.s0n, curve.s1x, curve.residual):
            assert np.all(np.isnan(values[:3])) and np.isfinite(values[3])

    @pytest.mark.parametrize("mode", ["full_equilibrium", "partial"])
    def test_inadmissible_rates_are_not_replayed(self, baseline, monkeypatch,
                                                 mode):
        """On the baseline, 1429 of these 10k rates are below -1.  Their
        messages come from the array pass's rate check, byte for byte as the
        per-point replay gave them.  No float check rejects a point (neither
        in a float solve nor in check_rate, which calls model._reject), and
        the only float solve is partial mode's at its reference rate."""
        replayed, values_at_rate, float_reject = [], model._values_at_rate, \
            model._reject

        def solve(instance, r):
            replayed.append(r)
            return values_at_rate(instance, r)

        def reject(failed, error, message, *args):
            replayed.append(args)
            float_reject(failed, error, message, *args)

        monkeypatch.setattr(model, "_values_at_rate", solve)
        monkeypatch.setattr(model, "_reject", reject)
        monkeypatch.setattr(model, "_FLOATS", model._FLOATS._replace(reject=reject))
        curve = compute_schedules(baseline, np.linspace(-1.5, 2.0, 10_000),
                                  mode, R_REF if mode == "partial" else None)
        text = repr(curve.errors)
        assert len(curve.errors) == 1429
        assert curve.errors[-1] == (1428, "inadmissible rate "
                                    "r=-1.0001500150015001 (need r > -1 and "
                                    "delta + r > 0)")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "98f3b1250d7b22747325a18ee9241d70a13168832130df85cd778ba4b886269e")
        assert replayed == ([R_REF] if mode == "partial" else [])

    def test_later_failures_are_still_replayed(self, baseline, monkeypatch):
        """A rate that passes the rate check but fails a later one is
        replayed through the float path, which supplies its message."""
        poor = replace(baseline, g0=1e6)
        replayed, values_at_rate = [], model._values_at_rate

        def recording(instance, r):
            replayed.append(r)
            return values_at_rate(instance, r)

        monkeypatch.setattr(model, "_values_at_rate", recording)
        columns, errors = solve_rates(poor, [-1.5, 0.4821])
        assert errors[0] == (0, "inadmissible rate r=-1.5 (need r > -1 and "
                                "delta + r > 0)")
        assert errors[1][1].startswith("present-value income per household")
        assert replayed == [0.4821]
        for r in replayed:
            check_rate(poor, r)

    def test_default_grid(self):
        grid = default_grid(0.4821)
        assert grid.size == 41
        assert grid[0] == pytest.approx(0.2821)
        assert grid[-1] == pytest.approx(0.6821)
        assert np.all(default_grid(0.05) >= 0.01)

    def test_determinism(self, baseline):
        a = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        b = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        assert np.array_equal(a.i0, b.i0)
        assert np.array_equal(a.s0n, b.s0n)
        assert np.array_equal(a.s1x, b.s1x)

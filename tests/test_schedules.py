"""Saving/investment schedules in both construction modes."""

import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import openecon
from openecon import compute_schedules, schedules, solve_rates
from openecon import model
from openecon.acceptance import sample_instance
from openecon.configio import read_instance
from openecon.schedules import MODES, default_grid
from reference_model import check_rate

GRID = np.linspace(0.30, 0.70, 41)
R_REF = 0.4821


def slopes(grid, columns):
    """d(S0N + S1X)/dr and dI0/dr on each grid segment."""
    d_r = np.diff(grid)
    return (np.diff(columns["s0n"] + columns["s1x"]) / d_r,
            np.diff(columns["i0"]) / d_r)


def run_script(rate):
    """(exit code, stdout, stderr) of scripts/run_schedules.py --rate RATE."""
    src = Path(openecon.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "run_schedules.py"
    proc = subprocess.run([sys.executable, str(script), "--rate", rate],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestFullEquilibrium:
    def test_investment_strictly_decreasing(self, baseline):
        columns, _ = compute_schedules(baseline, GRID)
        assert np.all(np.diff(columns["i0"]) < 0)

    def test_residual_tiny_everywhere(self, baseline):
        columns, _ = compute_schedules(baseline, GRID)
        y0 = solve_rates(baseline, GRID)[0]["y0"]
        assert np.all(np.abs(columns["residual"]) <= 1e-9 * y0)

    def test_external_saving_strictly_decreasing(self, baseline):
        columns, _ = compute_schedules(baseline, GRID)
        assert np.all(np.diff(columns["s1x"]) < 0)

    def test_no_flagged_segments(self, baseline):
        """Nothing to flag: the saving sum tracks I0 identically."""
        saving_sum_slope, i0_slope = slopes(GRID,
                                            compute_schedules(baseline, GRID)[0])
        assert np.all(i0_slope < 0)
        assert np.allclose(saving_sum_slope, i0_slope, rtol=1e-12, atol=0)


class TestPartial:
    def test_coincides_with_full_at_reference(self, baseline):
        grid = np.array([R_REF - 0.1, R_REF, R_REF + 0.1])
        partial, _ = compute_schedules(baseline, grid, mode="partial",
                                       r_ref=R_REF)
        full, _ = compute_schedules(baseline, grid)
        y0 = solve_rates(baseline, grid)[0]["y0"]
        j = 1
        assert partial["i0"][j] == pytest.approx(full["i0"][j], rel=1e-12)
        assert partial["s0n"][j] == pytest.approx(full["s0n"][j], rel=1e-10)
        assert partial["s1x"][j] == pytest.approx(full["s1x"][j], rel=1e-10)
        assert abs(partial["residual"][j]) <= 1e-8 * y0[j]

    def test_residual_changes_sign_at_reference(self, baseline):
        columns, _ = compute_schedules(baseline, GRID, mode="partial",
                                       r_ref=R_REF)
        below = columns["residual"][GRID < R_REF - 1e-9]
        above = columns["residual"][GRID > R_REF + 1e-9]
        assert np.sign(below[-1]) != np.sign(above[0])

    def test_crossing_geometry_slopes(self, baseline):
        columns, _ = compute_schedules(baseline, GRID, mode="partial",
                                       r_ref=R_REF)
        saving_sum_slope, i0_slope = slopes(GRID, columns)
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
    @pytest.mark.parametrize("mode", MODES)
    def test_columns_are_the_schedules(self, baseline, mode):
        """Both modes return the same four columns over the grid."""
        columns, errors = compute_schedules(baseline, GRID, mode, R_REF)
        assert list(columns) == ["i0", "s0n", "s1x", "residual"] and not errors
        assert all(v.dtype == float and v.shape == GRID.shape
                   for v in columns.values())
        assert np.array_equal(columns["residual"], columns["s0n"]
                              + columns["s1x"] - columns["i0"])

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
        columns, errors = compute_schedules(soft, grid)
        assert errors
        bad = [j for j, _ in errors]
        assert bad and np.all(np.isnan(columns["i0"][bad]))
        good = [j for j in range(grid.size) if j not in bad]
        assert np.all(np.isfinite(columns["i0"][good]))

    def test_partial_errors_in_index_order(self, baseline):
        """Inadmissible and overflowing points both become NaN errors."""
        steep = replace(baseline, alpha=0.98, delta=0.1)
        grid = np.array([-0.2, -0.1, -0.09999999, 10.0])
        columns, errors = compute_schedules(steep, grid, mode="partial",
                                            r_ref=10.0)
        assert [j for j, _ in errors] == [0, 1, 2]
        assert errors[0][1].startswith("inadmissible rate r=-0.2")
        assert errors[1][1].startswith("inadmissible rate r=-0.1")
        assert errors[2][1] == "numerical overflow at r=-0.09999999"
        for values in columns.values():
            assert np.all(np.isnan(values[:3])) and np.isfinite(values[3])

    @pytest.mark.parametrize("mode", ["full_equilibrium", "partial"])
    def test_inadmissible_rates_are_not_replayed(self, baseline, monkeypatch,
                                                 mode):
        """On the baseline, 1429 of these 10k rates are below -1.  Their
        messages come from the array pass's rate check, byte for byte as the
        per-point replay gave them.  No float check rejects a point (the
        float path's rate check and kernel both reject through
        model._reject), and the only float solve is partial mode's at its
        reference rate."""
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
        _, errors = compute_schedules(baseline, np.linspace(-1.5, 2.0, 10_000),
                                      mode, R_REF if mode == "partial" else None)
        text = repr(errors)
        assert len(errors) == 1429
        assert errors[-1] == (1428, "inadmissible rate "
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
        assert np.all(np.diff(default_grid(-0.189)) > 0)

    @pytest.mark.parametrize("r_ref, shown", [(-0.5, "-0.5"), (-0.19, "-0.19"),
                                              (1e15, "1e+15"), (1e300, "1e+300")])
    def test_default_grid_that_does_not_rise(self, r_ref, shown):
        """At r_ref <= -0.19 the 0.01 floor is not below r_ref + 0.2 (at
        -0.19 the two differ by 9e-18, finer than 40 steps can split), and
        at a huge r_ref the 41 rates round together."""
        with pytest.raises(ValueError, match=(
                rf"^no default grid at r_ref={re.escape(shown)}: its 41 rates "
                r"from max\(0\.01, r_ref - 0\.2\) to r_ref \+ 0\.2 do not rise$")):
            default_grid(r_ref)

    def test_script_below_the_grid_floor_exits_2(self):
        """run_schedules.py at a rate under default_grid's 0.01 floor leaves
        partial mode's reference outside the grid; it prints
        compute_schedules' message and exits 2.  `openecon schedules --mode
        partial --rate 0.005` also exits 2, with its own message, which
        names --rate."""
        assert run_script("0.005") == (
            2, "", "error: r_ref must lie within the grid span\n")

    def test_script_without_a_default_grid_exits_2(self):
        """At -0.19 or less the default grid does not rise: the script
        prints default_grid's message, with no traceback, and exits 2."""
        assert run_script("-0.5") == (
            2, "", "error: no default grid at r_ref=-0.5: its 41 rates from "
            "max(0.01, r_ref - 0.2) to r_ref + 0.2 do not rise\n")

    def test_determinism(self, baseline):
        a, _ = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        b, _ = compute_schedules(baseline, GRID, mode="partial", r_ref=R_REF)
        assert np.array_equal(a["i0"], b["i0"])
        assert np.array_equal(a["s0n"], b["s0n"])
        assert np.array_equal(a["s1x"], b["s1x"])


def both_paths(monkeypatch, *args):
    """compute_schedules(*args) on the array path, then on the scalar path:
    each as (column types, columns' bytes, errors), or the exception's type
    and text."""
    outcomes = []
    for arrays in (True, False):
        monkeypatch.setattr(schedules, "_use_arrays", lambda grid: arrays)
        try:
            columns, errors = compute_schedules(*args)
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        outcomes.append(({type(v) for v in columns.values()},
                         {k: np.asarray(v).tobytes() for k, v in columns.items()},
                         errors))
    return outcomes


class TestBothPaths:
    """The scalar path, which runs while numpy is not loaded and the grid is
    small, gives the array path's columns bit for bit and its errors."""

    def test_sampled_economies(self, monkeypatch):
        """50 seeded economies, on grids that often start below r = -1 or
        -delta; partial mode anchored at both grid ends and inside."""
        rng = np.random.default_rng(3301)
        kinds = set()
        for _ in range(50):
            instance = sample_instance(rng)
            start = rng.uniform(-1.6, 0.8)
            grid = np.linspace(start, start + rng.uniform(0.05, 4.0),
                               rng.integers(2, 60))
            for mode, r_ref in [("full_equilibrium", None),
                                ("partial", grid[0]), ("partial", grid[-1]),
                                ("partial", rng.uniform(grid[0], grid[-1]))]:
                array_path, scalar_path = both_paths(
                    monkeypatch, instance, grid, mode, r_ref)
                if len(array_path) == 3:
                    assert array_path[0] == {np.ndarray}
                    assert scalar_path[0] == {memoryview}
                    kinds.add("skipped" if array_path[2] else "clean")
                else:
                    kinds.add("raised")
                assert scalar_path[1:] == array_path[1:]
        assert kinds == {"clean", "skipped", "raised"}

    @pytest.mark.parametrize("overrides, grid, r_ref", [
        ({}, [-1.5, -1.0, -0.5, 0.4821, 2.0], 0.4821),
        # partial_overflow.txt: capital demand overflows at the first point
        ("partial_overflow.txt", [-0.09999999, 5.0, 10.0], 10.0),
        # c1/c0 = [beta (1 + r)]^(1/gamma) overflows to inf, while c0, and
        # with it every column, stays finite (0 and its neighbours)
        ({"gamma": 5e-4}, [0.05, 0.5, 1.0, 2.0], 0.05),
        # C0 = n0 * c0 overflows in full mode
        ({"n0": 1e306}, [0.3, 0.4, 0.5], 0.4),
    ])
    def test_edge_economies(self, monkeypatch, baseline, overrides, grid,
                            r_ref):
        if isinstance(overrides, str):
            instance = read_instance(str(Path(__file__).parent / "golden"
                                         / "inputs" / overrides))
        else:
            instance = model.with_parameters(baseline, overrides)
        for mode in MODES:
            array_path, scalar_path = both_paths(monkeypatch, instance, grid,
                                                 mode, r_ref)
            assert scalar_path[1:] == array_path[1:]

    @pytest.mark.parametrize("grid, message", [
        ([], "grid must be a non-empty 1-d array of rates"),
        ([[0.3, 0.5]], "grid must be a non-empty 1-d array of rates"),
        ([0.5, 0.4], "grid must be strictly increasing"),
        ([0.3, math.nan, 0.5], "grid must be strictly increasing"),
    ])
    def test_bad_grids(self, monkeypatch, baseline, grid, message):
        assert both_paths(monkeypatch, baseline, grid) == [
            (ValueError, message)] * 2

    def test_columns_refuse_to_concatenate(self, monkeypatch, baseline):
        monkeypatch.setattr(schedules, "_use_arrays", lambda grid: False)
        columns, _ = compute_schedules(baseline, [0.3, 0.5, 0.7])
        assert len(columns["i0"]) == 3 and columns["i0"][1] > 0
        with pytest.raises(TypeError):
            columns["s0n"] + columns["s1x"]

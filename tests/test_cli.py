"""End-to-end CLI behavior through cli.main with captured streams."""

import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openecon
from openecon.cli import build_parser, main
from openecon import closure, reference
from openecon.closure import KINDS
from openecon.model import PARAMETERS

SRC = str(Path(openecon.__file__).resolve().parents[1])
SCALAR_COMMANDS = [["solve", "--rate", "0.4821"], ["table"],
                   ["sweep", "--closure", "balanced_trade",
                    "--bracket", "0.4821,2.0"]]


def run(argv):
    out, err = StringIO(), StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def usage_error(argv):
    """The last stderr line of an argparse usage error, which exits 2."""
    err = StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return err.getvalue().splitlines()[-1]


class TestSolve:
    def test_json_at_published_rate(self):
        code, out, err = run(["solve", "--rate", "0.4821", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tb0"] == pytest.approx(-14948.74, rel=2e-3)
        assert payload["y0"] == pytest.approx(96492.67, rel=2e-3)

    def test_csv_has_key_value_rows(self):
        code, out, _ = run(["solve", "--rate", "0.4821"])
        assert code == 0
        fields = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert float(fields["i0"]) == pytest.approx(33506.0, rel=2e-3)

    def test_invalid_rate_exits_2(self):
        code, out, err = run(["solve", "--rate", "-2.0"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_nan_rate_exits_2(self):
        code, out, err = run(["solve", "--rate", "nan", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "inadmissible rate" in err

    def test_overflow_exits_2(self, tmp_path):
        path = tmp_path / "steep.txt"
        path.write_text("alpha = 0.99\ndelta = 0.1\n")
        code, out, err = run(["solve", "--rate", "-0.0999999",
                              "--instance-file", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflow" in err

    def test_rate_required(self):
        assert usage_error(["solve"]) == (
            "openecon solve: error: the following arguments are required: --rate")

    def test_instance_file(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("A1 = 1.15\n")
        code, out, _ = run(["solve", "--rate", "0.4979", "--format", "json",
                            "--instance-file", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["tb0"] == pytest.approx(-21991.62, rel=2e-3)

    def test_missing_instance_file_exits_2(self):
        code, _, err = run(["solve", "--rate", "0.5",
                            "--instance-file", "/nonexistent/calib.txt"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [["solve", "--rate", "0.5",
                                       "--instance-file"],
                                      ["table", "--scenario-file"]])
    def test_unreadable_file_exits_2(self, tmp_path, argv):
        code, out, err = run(argv + [str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("argv, extra", [
        (["solve", "--rate", "0.5"], ["--closure", "balanced_trade"]),
        (["sweep", "--closure", "trade_share_target", "--target", "-0.1"],
         ["--rate", "0.5"]),
        (["sweep", "--closure", "welfare_sweep", "--grid=0.3,0.6,4"],
         ["--rate", "0.5"])])
    def test_rate_beside_a_rate_rule_exits_2(self, argv, extra):
        """solve takes a rate and sweep a rule; neither takes the other."""
        assert usage_error(argv + extra) == (
            "openecon: error: unrecognized arguments: " + " ".join(extra))

    @pytest.mark.parametrize("spelling", [p[0] for p in PARAMETERS])
    def test_non_finite_parameter_exits_2(self, tmp_path, spelling):
        path = tmp_path / "calib.txt"
        for value in ("nan", "inf", "-inf"):
            path.write_text(f"{spelling} = {value}\n")
            code, out, err = run(["solve", "--rate", "0.5", "--format", "json",
                                  "--instance-file", str(path)])
            assert (code, out) == (2, ""), value
            assert err.startswith("error:")

    def test_rejected_value_names_its_line(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("A1 = 1.1\nK0 = inf\n")
        code, out, err = run(["solve", "--rate", "0.5",
                              "--instance-file", str(path)])
        assert (code, out, err) == (2, "", "error: line 2: k0 must be finite\n")

    def test_parameter_given_twice_exits_2(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("A1 = 1.1\na1 = 1.2\n")
        code, out, err = run(["solve", "--rate", "0.5",
                              "--instance-file", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: line 2: parameter 'a1' repeats line 1\n"



class TestTable:
    def test_default_suite_passes(self):
        code, out, err = run(["table"])
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 17  # header + 16 result rows
        assert lines[0] == ("row,baseline,higher_gamma,higher_theta,"
                            "higher_rho,higher_a1")
        assert lines[1].startswith("X0-M0,")

    def test_json_contains_sign_checks(self):
        code, out, _ = run(["table", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["scenarios"]) == 5
        assert len(payload["sign_checks"]) == 4
        assert all(c["passed"] for c in payload["sign_checks"])

    def test_reference_mismatch_fails_to_stderr(self, monkeypatch):
        monkeypatch.setitem(reference.REFERENCE_TABLE["baseline"], "y0", 1e5)
        code, out, err = run(["table"])
        assert code == 1
        assert err == "baseline: row Y0 deviates by 0.0351 (tolerance 0.002)\n"

    @pytest.mark.parametrize("argv", [
        ["table", "--tol", "1e-9"],
        ["table", "--scenario-file", "scen.txt", "--tol", "1e-9"],
        ["sweep", "--closure", "balanced_trade", "--tol", "1e-9"],
        ["sweep", "--closure", "trade_share_target", "--target", "0.1",
         "--tol", "1e-9"],
        ["sweep", "--closure", "welfare_sweep", "--grid=0.3,0.6,4",
         "--tol", "1e-9"]])
    def test_tolerance_is_no_option(self, argv):
        """Both tolerances are constants, so --tol is refused by every
        command and closure kind before any file is read."""
        assert usage_error(argv) == (
            "openecon: error: unrecognized arguments: --tol 1e-9")

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "scen.txt"
        path.write_text("[only]\nrate = 0.4821\nperturb.gamma = 1.15\n")
        code, out, _ = run(["table", "--scenario-file", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "row,only"

    def test_section_given_twice_exits_2(self, tmp_path):
        path = tmp_path / "scen.txt"
        path.write_text("[a]\nrate = 0.4821\n[a]\nrate = 0.5\n")
        code, out, err = run(["table", "--scenario-file", str(path)])
        assert (code, out, err) == (2, "", "error: line 3: section 'a' repeats line 1\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejected_set_value_exits_2(self, tmp_path, fmt):
        """A `set.` value no instance accepts stops the run before any
        solve, naming its line."""
        path = tmp_path / "scen.txt"
        path.write_text("[x]\nrate = 0.5\nset.K0 = -1\n")
        code, out, err = run(["table", "--format", fmt,
                              "--scenario-file", str(path)])
        assert (code, out, err) == (
            2, "", "error: line 3: initial capital k0 must be positive\n")

    def test_zero_rate_scenario_fails_alone(self, tmp_path):
        """w0/r has no value at r = 0: that scenario fails, the rest print."""
        path = tmp_path / "zero.txt"
        path.write_text("[z]\nrate = 0\n[b]\nrate = 0.4821\n")
        code, out, err = run(["table", "--scenario-file", str(path)])
        assert code == 1
        assert out.splitlines()[0] == "row,z,b"
        assert out.splitlines()[-1] == "w1,nan,0.16868"
        assert err == "z: error: row w0/r is undefined at r=0.0\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("instance, scenarios, bad, good, message", [
        ("A1 = 1e-320\n", "[a]\nrate = 0.5\n", "a", [],
         "row w0/(w1/(1+r)) is not finite at r=0.5"),
        ("", "[tiny]\nrate = 1e-310\n[good]\nrate = 0.4821\n", "tiny", ["good"],
         "row w0/r is not finite at r=1e-310"),
    ], ids=["tiny_a1", "tiny_rate"])
    def test_non_finite_row_fails_its_scenario_alone(self, tmp_path, fmt, instance,
                                                     scenarios, bad, good, message):
        """A row that overflows fails its scenario by name, never inf with exit 0."""
        (tmp_path / "calib.txt").write_text(instance)
        (tmp_path / "scen.txt").write_text(scenarios)
        code, out, err = run(["table", "--format", fmt,
                              "--instance-file", str(tmp_path / "calib.txt"),
                              "--scenario-file", str(tmp_path / "scen.txt")])
        assert (code, err) == (1, f"{bad}: error: {message}\n")
        assert "inf" not in out
        if fmt == "json":
            results = json.loads(out)["scenarios"]
            assert [(r["name"], r["error"]) for r in results] == [
                (bad, message)] + [(name, None) for name in good]
            assert [bool(r["rows"]) for r in results] == [False] + [True] * len(good)
        else:
            assert out.splitlines()[0] == ",".join(["row", bad, *good])
            assert out.splitlines()[-1].split(",")[:2] == ["w1", "nan"]

    @pytest.mark.parametrize("years", ["1e-300", "5e-324"])
    def test_overflowing_per_year_rate_fails_each_scenario(self, tmp_path, years):
        path = tmp_path / "tiny.txt"
        path.write_text(f"years_per_period = {years}\n")
        code, out, err = run(["table", "--format", "json",
                              "--instance-file", str(path)])
        assert code == 1
        scenarios = json.loads(out)["scenarios"]
        assert len(scenarios) == 5 and all(s["rows"] == {} for s in scenarios)
        assert err.splitlines()[0] == (
            f"baseline: error: per-year rate overflows at r=0.4821 over "
            f"{float(years)} years")

    def test_failed_scenario_json_is_strict(self, tmp_path):
        """A scenario that fails has no rate: null, not json's NaN."""
        path = tmp_path / "bad.txt"
        path.write_text("[bad]\nclosure = balanced_trade\nbracket = 0.01, 0.02\n")
        code, out, err = run(["table", "--format", "json",
                              "--scenario-file", str(path)])
        assert code == 1
        assert err.startswith("bad: error: objective has the same sign")

        def not_json(constant):
            raise AssertionError(f"{constant} in table JSON")

        (scenario,) = json.loads(out, parse_constant=not_json)["scenarios"]
        assert scenario["rate"] is None

    @pytest.mark.parametrize("line, message", [
        ("bracket = x, 2", "bracket = 'x' is not a number"),
        ("target = a", "target = 'a' is not a number"),
        ("closure_tol = 1e-8", "unknown scenario key 'closure_tol'"),
        ("sweep_grid = 0.1, zz", "sweep_grid = 'zz' is not a number"),
        ("max_iterations = 50", "unknown scenario key 'max_iterations'"),
        ("rate = x", "rate = 'x' is not a number"),
        ("rate = nan", "rate must be finite"),
        ("set.A1 = y", "set.A1 = 'y' is not a number"),
        ("set.beta = 1", "unknown parameter 'beta'"),
        ("perturb.gamma = z", "perturb.gamma = 'z' is not a number"),
        ("shock = 2", "unknown scenario key 'shock'"),
    ])
    def test_bad_closure_value_exits_2(self, tmp_path, line, message):
        path = tmp_path / "scen.txt"
        path.write_text(f"# closure values\n[x]\nclosure = balanced_trade\n{line}\n")
        code, out, err = run(["table", "--scenario-file", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: line 4: {message}\n"

    @pytest.mark.parametrize("lines, message", [
        ("closure = welfare_sweep\nsweep_grid = 0.3, 0.6\nbracket = 0.1, 0.2",
         "line 2: welfare_sweep closure takes no bracket"),
        ("closure = welfare_sweep\nsweep_grid = 0.3, 0.6\nmax_iterations = 3",
         "line 4: unknown scenario key 'max_iterations'"),
        ("closure = welfare_sweep\nsweep_grid = 0.3, 0.6\nclosure_tol = 5",
         "line 4: unknown scenario key 'closure_tol'"),
        ("closure = welfare_sweep\nsweep_grid = nan, inf",
         "line 2: grid rates must be finite"),
        ("perturb.gamma = 1.1", "line 1: scenario 'x' needs a rate or a closure"),
    ])
    def test_bad_closure_spec_names_closure_line(self, tmp_path, lines, message):
        """ClosureSpec errors name the closure line, Scenario errors the
        header line and an unknown key its own line; each stops the run
        before any solve."""
        path = tmp_path / "scen.txt"
        path.write_text(f"[x]\n{lines}\n")
        code, out, err = run(["table", "--format", "json",
                              "--scenario-file", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestSweep:
    def test_balanced_trade(self):
        code, out, _ = run(["sweep", "--closure", "balanced_trade",
                            "--bracket", "0.4821,2.0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equilibrium"]["r"] == pytest.approx(0.748304, abs=1e-4)
        assert "converged" not in payload["closure"]

    def test_requires_closure(self):
        assert usage_error(["sweep"]) == (
            "openecon sweep: error: the following arguments are required: "
            "--closure")

    def test_bad_bracket_exits_2(self):
        code, _, err = run(["sweep", "--closure", "balanced_trade",
                            "--bracket", "0.8,1.2"])
        assert code == 2
        assert "sign" in err

    @pytest.mark.parametrize("option", ["--bracket=0.01,inf",
                                        "--bracket=nan,2.0",
                                        "--bracket=-inf,2.0"])
    def test_non_finite_closure_input_exits_2(self, option):
        code, out, err = run(["sweep", "--closure", "balanced_trade",
                              "--format", "csv", option])
        assert (code, out) == (2, "")
        assert err == "error: bracket ends must be finite\n"

    def test_convergence_error_exits_2(self, monkeypatch):
        monkeypatch.setattr(closure, "MAX_ITERATIONS", 1)
        code, out, err = run(["sweep", "--closure", "balanced_trade"])
        assert (code, out) == (2, "")
        assert err == "error: no convergence after 1 root-finding steps\n"

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_exits_2(self, target):
        code, out, err = run(["sweep", "--closure", "trade_share_target",
                              f"--target={target}", "--format", "json"])
        assert (code, out) == (2, "")
        assert err == "error: target_share must be finite\n"

    @pytest.mark.parametrize("option, noun", [
        (["--bracket", "0.1,0.2"], "bracket"),
        (["--target", "0.1"], "target_share")])
    def test_root_finding_option_beside_welfare_sweep_exits_2(self, option, noun):
        code, out, err = run(["sweep", "--closure", "welfare_sweep",
                              "--grid=0.3,0.6,4", *option])
        assert (code, out) == (2, "")
        assert err == f"error: welfare_sweep closure takes no {noun}\n"

    @pytest.mark.parametrize("bracket", ["0.5", "a,b", "0.1,0.2,0.3", ""])
    def test_malformed_bracket_exits_2(self, bracket):
        code, out, err = run(["sweep", "--closure", "balanced_trade",
                              "--bracket", bracket])
        assert (code, out) == (2, "")
        assert err == "error: --bracket must be LO,HI\n"


class TestSchedules:
    def test_csv_header_and_shape(self):
        code, out, _ = run(["schedules", "--grid", "0.3,0.7,5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,I0,S0N,S1X,residual"
        assert len(lines) == 6

    def test_partial_mode_json(self):
        code, out, _ = run(["schedules", "--mode", "partial",
                            "--rate", "0.4821", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "partial"
        assert len(payload["points"]) == 41

    def test_rate_beside_a_full_mode_grid_exits_2(self):
        """Full mode solves every grid point, so --rate only centres the
        default grid; beside --grid it would be dropped."""
        for mode in ([], ["--mode", "full"]):
            code, out, err = run(["schedules", "--grid=0.3,0.6,3",
                                  "--rate", "5", *mode])
            assert (code, out) == (2, "")
            assert err == "error: --rate does not apply to --mode full with --grid\n"
        default = run(["schedules"])
        assert run(["schedules", "--rate", "0.4821"]) == default
        assert run(["schedules", "--rate", "0.6"])[1] != default[1]
        partial = ["schedules", "--mode", "partial", "--grid=0.3,0.6,3"]
        assert run([*partial, "--rate", "0.5"])[1] != run(partial)[1]

    @pytest.mark.parametrize("grid", ["nan,1,3", "0,inf,3", "-inf,0,3"])
    def test_non_finite_grid_exits_2(self, grid):
        code, out, err = run(["schedules", f"--grid={grid}"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["a,1,5", "0.1,1,5.5", "0.1,1", ""])
    def test_malformed_grid_exits_2(self, grid):
        for argv in (["schedules"], ["sweep", "--closure", "welfare_sweep"]):
            code, out, err = run([*argv, f"--grid={grid}"])
            assert (code, out) == (2, "")
            assert err == "error: --grid must be START,STOP,POINTS\n"

    def test_grid_span_must_be_finite(self, monkeypatch):
        """STOP - START = inf would make np.linspace overflow and warn."""
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        for argv in (["schedules"], ["sweep", "--closure", "welfare_sweep"]):
            code, out, err = run([*argv, "--grid=-1e308,1.7e308,2"])
            assert (code, out) == (2, "")
            assert err == "error: --grid span STOP - START must be finite\n"

    def test_grid_points_capped_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        for argv in (["schedules", "--grid", "0.1,1.5,1000001"],
                     ["sweep", "--closure", "welfare_sweep",
                      "--grid", "0.1,1.5,1000001"]):
            code, out, err = run(argv)
            assert code == 2
            assert out == ""
            assert "at most 1000000" in err

    def test_overflow_reads_as_in_solve(self, tmp_path):
        """A numpy grid rate overflows with the same message as --rate."""
        path = tmp_path / "steep.txt"
        path.write_text("alpha = 0.99\ndelta = 0.1\n")
        instance = ["--instance-file", str(path)]
        code, out, err = run(["solve", "--rate", "-0.0999", *instance])
        assert (code, out) == (2, "")
        assert err == "error: numerical overflow at r=-0.0999\n"
        for mode in (["full"], ["partial", "--rate", "1"]):
            code, out, err = run(["schedules", "--grid=-0.0999,1,3",
                                  "--mode", *mode, *instance])
            assert code == 0
            assert out.splitlines()[1] == "-0.0999,nan,nan,nan,nan"
            assert err.splitlines()[0] == ("grid point 0 (r=-0.0999) skipped: "
                                           "numerical overflow at r=-0.0999")

    def test_partial_overflow_is_skipped(self, tmp_path):
        path = tmp_path / "steep.txt"
        path.write_text("alpha = 0.98\ndelta = 0.1\n")
        code, out, err = run(["schedules", "--mode", "partial",
                              "--grid=-0.09999999,10,3", "--rate", "10",
                              "--format", "json", "--instance-file", str(path)])
        assert code == 0
        assert "Infinity" not in out
        first, *rest = json.loads(out)["points"]
        assert first["r"] == -0.09999999
        assert all(first[key] is None
                   for key in ("I0", "S0N", "S1X", "residual"))
        assert all(math.isfinite(v) for point in rest for v in point.values())
        assert err == ("grid point 0 (r=-0.1) skipped: "
                       "numerical overflow at r=-0.09999999\n")

    def test_overflowing_output_is_rejected(self, tmp_path):
        """a0 * L0 overflows, so y0 is inf and income NaN: solve exits 2,
        schedules skips every point, with null in JSON and nan in CSV."""
        path = tmp_path / "huge.txt"
        path.write_text("A0 = 1e300\nN0 = 1e10\n")
        instance = ["--instance-file", str(path)]
        code, out, err = run(["solve", "--rate", "0.5", *instance])
        assert (code, out) == (2, "")
        assert err == "error: numerical overflow at r=0.5\n"
        skipped = ("grid point 0 (r=0.1) skipped: numerical overflow at r=0.1\n"
                   "grid point 1 (r=1) skipped: numerical overflow at r=1.0\n")
        code, out, err = run(["schedules", "--grid=0.1,1,2", "--format",
                              "json", *instance])
        assert (code, err) == (0, skipped)
        assert [list(point.values()) for point in json.loads(out)["points"]] \
            == [[None, None, None, 0.1, None], [None, None, None, 1.0, None]]
        code, out, err = run(["schedules", "--grid=0.1,1,2", *instance])
        assert (code, err) == (0, skipped)
        assert out.splitlines()[1:] == ["0.1,nan,nan,nan,nan", "1,nan,nan,nan,nan"]

    def test_overflowing_consumption_is_rejected(self, tmp_path):
        """N0 = 1e306: c0 is finite but C0 = n0 * c0 overflows, so tb0 and
        s0n are -inf.  solve and the welfare sweep exit 2, and schedules
        skips every point."""
        path = tmp_path / "crowded.txt"
        path.write_text("N0 = 1e306\n")
        instance = ["--instance-file", str(path)]
        code, out, err = run(["solve", "--rate", "0.4821", *instance])
        assert (code, out) == (2, "")
        assert err == "error: numerical overflow at r=0.4821\n"
        code, out, err = run(["sweep", "--closure", "welfare_sweep",
                              "--grid=0.3,0.6,4", *instance])
        assert (code, out) == (2, "")
        assert err == "error: numerical overflow at r=0.3\n"
        code, out, err = run(["schedules", "--grid=0.3,0.6,4", *instance])
        assert code == 0
        assert "inf" not in out
        assert out.splitlines()[1:] == [f"{r},nan,nan,nan,nan"
                                        for r in ("0.3", "0.4", "0.5", "0.6")]
        assert [line.split(" skipped: ")[1] for line in err.splitlines()] == [
            f"numerical overflow at r={r}"
            for r in (0.3, 0.39999999999999997, 0.5, 0.6)]

    @pytest.mark.parametrize("argv", [["--rate", "nan"],
                                      ["--rate", "inf", "--mode", "partial"],
                                      ["--rate=-inf", "--grid=0.1,1,5"]])
    def test_non_finite_rate_exits_2(self, argv):
        code, out, err = run(["schedules", *argv])
        assert (code, out) == (2, "")
        assert err == "error: --rate must be finite\n"

    def test_byte_identical_reruns(self):
        argv = ["schedules", "--grid", "0.3,0.7,11", "--format", "json"]
        _, a, _ = run(argv)
        _, b, _ = run(argv)
        assert a == b


class TestCheck:
    def test_acceptance_gate(self):
        code, out, _ = run(["check"])
        lines = out.strip().splitlines()
        assert len(lines) == 10
        failing = [l for l in lines if l.startswith("FAIL")]
        # criterion 8 is a documented spec defect; everything else passes
        assert len(failing) == 1
        assert "criterion 8" in failing[0]
        assert code == 1


class TestClosedStdout:
    """A reader that closes stdout early ends the command with exit 1 and
    nothing on stderr, whether stdout is buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_before_output(self, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "openecon.cli", "solve", "--rate", "0.4821"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered})
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b"")
        proc.stderr.close()

    def test_closed_after_first_line(self):
        """`openecon check | head -1`: check writes a line per criterion."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "openecon.cli", "check"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"})
        assert proc.stdout.readline().startswith(b"PASS  criterion 1:")
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b"")
        proc.stderr.close()


def run_fresh(script, *args):
    """Run a Python script in a fresh interpreter that imports openecon from SRC."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# argv[1]: "block" makes numpy unimportable first; argv[2]: the commands.
SCALAR_SCRIPT = """
import io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from openecon import cli
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    runs.append([cli.main(argv, out=out, err=err), out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "numpy": "numpy" in sys.modules}))
"""


class TestStartUp:
    """The scalar commands neither load nor need numpy, and CSV output
    loads no json."""

    def test_scalar_commands_leave_numpy_unloaded(self):
        result = run_fresh(SCALAR_SCRIPT, "load", json.dumps(SCALAR_COMMANDS))
        assert [code for code, _, _ in result["runs"]] == [0, 0, 0]
        assert result["numpy"] is False

    def test_scalar_commands_run_without_numpy(self):
        result = run_fresh(SCALAR_SCRIPT, "block", json.dumps(SCALAR_COMMANDS))
        assert result["runs"] == [list(run(argv)) for argv in SCALAR_COMMANDS]

    def test_csv_sweep_leaves_json_unloaded(self):
        """Only the JSON writers import json."""
        proc = subprocess.run([sys.executable, "-c", """
import io, sys
from openecon import cli
code = cli.main(["sweep", "--closure", "balanced_trade"],
                out=io.StringIO(), err=io.StringIO())
print(code, "json" in sys.modules)
"""], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")

    def test_package_still_binds_schedules(self):
        result = run_fresh("""
import json, sys
import openecon
loaded = "openecon.schedules" in sys.modules
numpy_at_import = "numpy" in sys.modules
from openecon import baseline_instance, compute_schedules
curve = compute_schedules(baseline_instance(), [0.3, 0.5, 0.7])
print(json.dumps([loaded, numpy_at_import, curve.i0.tolist()]))
""")
        loaded, numpy_at_import, i0 = result
        assert loaded and not numpy_at_import
        assert len(i0) == 3 and all(math.isfinite(v) for v in i0)


# argv[1]: the commands, each run through cli.main in this one process,
# with argparse's SystemExit taken as the exit code.
MAIN_SCRIPT = """
import contextlib, io, json, sys
from openecon import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, out=out, err=err)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


class TestParserReuse:
    """cli.main builds its parser once per process and reuses it."""

    def test_usage_error_then_valid_calls(self):
        """A usage error, then valid calls, give each call the bytes it
        gives alone in a fresh process."""
        calls = [["solve", "--rate"], ["solve", "--rate", "0.4821"],
                 ["schedules", "--mode", "half"],
                 ["schedules", "--grid=0.3,0.6,4", "--format", "json"],
                 ["solve", "--rate", "0.5", "--format", "json"]]
        together = run_fresh(MAIN_SCRIPT, json.dumps(calls))
        alone = [run_fresh(MAIN_SCRIPT, json.dumps([argv]))[0]
                 for argv in calls]
        assert together == alone
        assert [code for code, _, _ in together] == [2, 0, 2, 0, 0]
        assert build_parser() is build_parser()


# The fuzzer's vocabulary: every subcommand with its options, and values at
# the edges of each option's parser: non-finite and subnormal floats,
# malformed LO,HI and START,STOP,POINTS, grids of at most 11 points or past
# the cap, and missing and bad files.
FLOATS = ["nan", "inf", "-inf", "5e-324", "-5e-324", "0", "-0.0", "-1",
          "-2.0", "0.4821", "0.75", "1e308", "1e-12", "10", "x", ""]
FILES = ["/nonexistent/instance.txt"]   # the fuzz_files fixture adds more
FUZZ_VALUES = {
    "--rate": FLOATS, "--target": FLOATS,
    "--closure": list(KINDS),
    "--bracket": ["0.4821,2.0", "0.01,0.02", "2.0,0.01", "nan,1", "0.5",
                  "a,b", "0.1,0.2,0.3", "0.01,inf", "-1.5,5e-324", ","],
    "--grid": ["0.3,0.6,4", "-1.5,1,6", "0.3,1.2,11", "0.1,1,5.5", "0.1,1",
               "0,1,1", "nan,1,3", "0.3,0.6,0", "1,0,3", "0,1,1000001",
               "-inf,1,3", "5e-324,1e-300,3", "-1e308,1.7e308,2"],
    "--format": ["csv", "json"], "--mode": ["full", "partial"],
    "--instance-file": FILES, "--scenario-file": FILES,
}
COMMON_OPTIONS = ["--instance-file", "--format"]
FUZZ_OPTIONS = {
    "solve": COMMON_OPTIONS + ["--rate"],
    "table": COMMON_OPTIONS + ["--scenario-file"],
    "sweep": COMMON_OPTIONS + ["--closure", "--bracket", "--target", "--grid"],
    "schedules": COMMON_OPTIONS + ["--rate", "--grid", "--mode"],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Instance and scenario files, good and bad, for the fuzzer to name."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"steep.txt": "alpha = 0.99\ndelta = 0.1\n",
             "huge.txt": "N0 = 1e306\n",
             "bad.txt": "K0 = inf\n",
             "scenarios.txt": "[b]\nclosure = balanced_trade\n"
                              "bracket = 0.4821, 2.0\n[r]\nrate = 0.5\n",
             "bad_scenarios.txt": "[x]\nrate = nan\n",
             "zero_rate.txt": "[z]\nrate = 0\n[b]\nrate = 0.4821\n",
             "tiny_years.txt": "years_per_period = 1e-300\n",
             "tiny_a1.txt": "A1 = 1e-320\n",
             "tiny_output.txt": "K0 = 1e-250\nA0 = 1e-250\nl0_max = 1e-100\n",
             "tiny_future_wage.txt": "A1 = 4.4e-323\n",
             "rate_one.txt": "[one]\nrate = 1\n",
             "a_scenario.txt": "[a]\nrate = 0.5\n",
             "tiny_rate.txt": "[tiny]\nrate = 1e-310\n[good]\nrate = 0.4821\n"}
    for name, text in texts.items():
        (root / name).write_text(text)
    return [str(root / name) for name in texts] + [str(root)]


@st.composite
def argvs(draw, files):
    """A subcommand and option/value pairs, as `--opt=value` or, for a
    value that does not start with "-", `--opt value`; one draw in ten
    takes a random text instead, or inserts a random token or help flag."""
    def rarely(strategy, other):
        return draw(other if draw(st.integers(0, 9)) == 0 else strategy)

    command = rarely(st.sampled_from(list(FUZZ_OPTIONS)), st.text(max_size=6))
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        option = draw(st.sampled_from(FUZZ_OPTIONS.get(command, ["--rate"])))
        pool = FUZZ_VALUES[option] + (files if option.endswith("file") else [])
        value = rarely(st.sampled_from(pool), st.text(max_size=6))
        argv += ([option, value] if draw(st.booleans())
                 and not value.startswith("-") else [f"{option}={value}"])
    token = rarely(st.none(), st.sampled_from(["-h", "--help", "check"])
                   | st.text(max_size=6))
    if token is not None:
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2(fuzz_files, data):
    """Any argument vector ends with exit 0, 1 or 2, or with argparse's
    SystemExit (0 for help, 2 for a usage error), never another exception."""
    argv = data.draw(argvs(fuzz_files))
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            code = main(argv, out=StringIO(), err=StringIO())
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 1, 2), argv

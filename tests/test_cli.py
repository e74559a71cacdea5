"""End-to-end CLI behavior through cli.main with captured streams."""

import json
import math
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import openecon
from openecon.cli import main
from openecon.scenarios import PARAMETERS

SRC = str(Path(openecon.__file__).resolve().parents[1])
SCALAR_COMMANDS = [["solve", "--rate", "0.4821"], ["table"],
                   ["sweep", "--closure", "balanced_trade",
                    "--bracket", "0.4821,2.0"]]


def run(argv):
    out, err = StringIO(), StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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

    def test_rate_or_closure_required(self):
        code, _, err = run(["solve"])
        assert code == 2
        assert "rate" in err

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

    @pytest.mark.parametrize("spelling", [p[0] for p in PARAMETERS])
    def test_non_finite_parameter_exits_2(self, tmp_path, spelling):
        path = tmp_path / "calib.txt"
        for value in ("nan", "inf", "-inf"):
            path.write_text(f"{spelling} = {value}\n")
            code, out, err = run(["solve", "--rate", "0.5", "--format", "json",
                                  "--instance-file", str(path)])
            assert (code, out) == (2, ""), value
            assert err.startswith("error:")

    @pytest.mark.parametrize("option", [["--tol", "inf"], ["--tol", "nan"],
                                        ["--bracket", "0.01,inf"]])
    def test_non_finite_closure_input_exits_2(self, option):
        code, out, err = run(["solve", "--closure", "balanced_trade",
                              "--format", "csv"] + option)
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_exits_2(self, target):
        code, out, err = run(["solve", "--closure", "trade_share_target",
                              f"--target={target}", "--format", "json"])
        assert (code, out) == (2, "")
        assert err == "error: target_share must be finite\n"

    @pytest.mark.parametrize("bracket", ["0.5", "a,b", "0.1,0.2,0.3"])
    def test_malformed_bracket_exits_2(self, bracket):
        code, out, err = run(["solve", "--closure", "balanced_trade",
                              "--bracket", bracket])
        assert (code, out) == (2, "")
        assert err == "error: --bracket must be LO,HI\n"


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

    def test_tight_tolerance_fails_to_stderr(self):
        code, out, err = run(["table", "--tol", "1e-9"])
        assert code == 1
        assert "deviates" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exits_2(self, tol):
        code, out, err = run(["table", f"--tol={tol}"])
        assert (code, out) == (2, "")
        assert err == "error: --tol must be finite and positive\n"

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "scen.txt"
        path.write_text("[only]\nrate = 0.4821\nperturb.gamma = 1.15\n")
        code, out, _ = run(["table", "--scenario-file", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "row,only"


class TestSweep:
    def test_balanced_trade(self):
        code, out, _ = run(["sweep", "--closure", "balanced_trade",
                            "--bracket", "0.4821,2.0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equilibrium"]["r"] == pytest.approx(0.748304, abs=1e-4)
        assert "converged" not in payload["closure"]

    def test_requires_closure(self):
        code, _, err = run(["sweep", "--rate", "0.5"])
        assert code == 2
        assert "closure" in err

    def test_bad_bracket_exits_2(self):
        code, _, err = run(["sweep", "--closure", "balanced_trade",
                            "--bracket", "0.8,1.2"])
        assert code == 2
        assert "sign" in err


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

    @pytest.mark.parametrize("grid", ["nan,1,3", "0,inf,3", "-inf,0,3"])
    def test_non_finite_grid_exits_2(self, grid):
        code, out, err = run(["schedules", f"--grid={grid}"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["a,1,5", "0.1,1,5.5", "0.1,1"])
    def test_malformed_grid_exits_2(self, grid):
        for argv in (["schedules"], ["sweep", "--closure", "welfare_sweep"]):
            code, out, err = run([*argv, f"--grid={grid}"])
            assert (code, out) == (2, "")
            assert err == "error: --grid must be START,STOP,POINTS\n"

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
        for mode in ("full", "partial"):
            code, out, err = run(["schedules", "--grid=-0.0999,1,3",
                                  "--mode", mode, "--rate", "1", *instance])
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
        assert all(math.isnan(first[key])
                   for key in ("I0", "S0N", "S1X", "residual"))
        assert all(math.isfinite(v) for point in rest for v in point.values())
        assert err == ("grid point 0 (r=-0.1) skipped: "
                       "numerical overflow at r=-0.09999999\n")

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
    """The scalar commands neither load nor need numpy."""

    def test_scalar_commands_leave_numpy_unloaded(self):
        result = run_fresh(SCALAR_SCRIPT, "load", json.dumps(SCALAR_COMMANDS))
        assert [code for code, _, _ in result["runs"]] == [0, 0, 0]
        assert result["numpy"] is False

    def test_scalar_commands_run_without_numpy(self):
        result = run_fresh(SCALAR_SCRIPT, "block", json.dumps(SCALAR_COMMANDS))
        assert result["runs"] == [list(run(argv)) for argv in SCALAR_COMMANDS]

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

#!/usr/bin/env python3
"""Write the CLI byte corpus, tests/golden/cli.json.

    PYTHONPATH=src python3 scripts/golden.py

Each command of COMMANDS runs in-process through openecon.cli.main, from
the repository root, so that file paths in messages are the relative paths
written here.  The corpus records its argv, exit code, stderr verbatim, and
stdout verbatim, or as sha256 and length when it is longer than 4 KB.  An
argparse usage error keeps only stderr's last line, since its usage lines
wrap to the terminal width.  An exception that escapes main is recorded as
`raised`.  The only masked text is criterion 1's run time in `check`.
tests/test_golden.py replays every entry and compares it with the file; an
edit to the file is an output change and must be declared as one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

from openecon.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "cli.json"
VERBATIM_LIMIT = 4096
_CRITERION_1_MS = re.compile(r"^(\w+  criterion 1: .*, )\d+( ms\))$", re.M)


def _input(name: str) -> str:
    return f"tests/golden/inputs/{name}"


def _table(name: str, *options: str) -> list[str]:
    return ["table", "--scenario-file", _input(name), *options]


def _with_instance(name: str, *argv: str) -> list[str]:
    return [*argv, "--instance-file", _input(name)]


GRID_2000 = "--grid=-1.5,2,2000"
COMMANDS = [
    # solve at a rate; every closure kind and bad closure inputs
    ["solve", "--rate", "0.4821"],
    ["solve", "--rate", "0.4821", "--format", "json"],
    ["solve", "--rate", "-2.0"],
    ["solve", "--rate", "nan", "--format", "json"],
    ["solve"],
    ["sweep", "--closure", "balanced_trade"],
    ["sweep", "--closure", "balanced_trade", "--format", "json"],
    ["sweep", "--closure", "trade_share_target", "--target", "-0.1"],
    ["sweep", "--closure", "trade_share_target", "--target=-0.1",
     "--format", "json"],
    ["sweep", "--closure", "trade_share_target"],
    ["sweep", "--closure", "trade_share_target", "--target=nan"],
    ["sweep", "--closure", "fixed", "--rate", "0.5", "--format", "json"],
    ["sweep", "--closure", "fixed"],
    ["sweep", "--closure", "balanced_trade", "--tol", "nan"],
    ["sweep", "--closure", "balanced_trade", "--bracket", "0.01,inf"],
    ["sweep", "--closure", "balanced_trade", "--target", "0.1"],
    ["sweep", "--closure", "balanced_trade", "--grid=0.3,0.6,4"],
    ["sweep", "--closure", "welfare_sweep", "--grid=0.3,0.6,4",
     "--bracket", "0.1,0.2"],
    ["sweep", "--closure", "welfare_sweep", "--grid=0.3,0.6,4", "--tol", "5"],
    # a rate beside a closure
    ["solve", "--rate", "0.5", "--closure", "balanced_trade",
     "--bracket", "0.4821,2.0"],
    ["sweep", "--rate", "0.5", "--closure", "welfare_sweep",
     "--grid=0.3,0.6,4"],
    # sweep: each kind, the removed `fixed` and bad brackets
    ["sweep", "--closure", "balanced_trade", "--bracket", "0.4821,2.0"],
    ["sweep", "--closure", "balanced_trade", "--bracket", "0.4821,2.0",
     "--format", "json"],
    ["sweep", "--closure", "trade_share_target", "--target", "-0.1",
     "--format", "json"],
    ["sweep", "--closure", "fixed", "--rate", "0.4979"],
    ["sweep", "--closure", "welfare_sweep", "--grid=0.3,1.2,91",
     "--format", "json"],
    ["sweep", "--closure", "welfare_sweep", "--grid=-1.5,1,6"],
    ["sweep", "--closure", "welfare_sweep"],
    ["sweep", "--rate", "0.5"],
    ["sweep", "--closure", "balanced_trade", "--bracket", "0.01,0.02"],
    ["sweep", "--closure", "balanced_trade", "--bracket", "2.0,0.01"],
    ["sweep", "--closure", "balanced_trade", "--bracket", "0.5"],
    ["sweep", "--closure", "balanced_trade", "--bracket=-1.5,0.02"],
    # a root at a bracket end: at lo, at hi, and an exact target share
    ["sweep", "--closure", "balanced_trade",
     "--bracket", "0.748304420352405,2.0", "--format", "json"],
    ["sweep", "--closure", "balanced_trade",
     "--bracket", "0.01,0.748304420352405"],
    ["sweep", "--closure", "trade_share_target",
     "--target=-0.1549353087588655", "--bracket", "0.4821,2.0",
     "--format", "json"],
    # table: the paper suite and scenario files
    ["table"],
    ["table", "--format", "json"],
    ["table", "--tol", "1e-9"],
    ["table", "--tol", "nan"],
    _table("paper.txt"),
    _table("paper.txt", "--format", "json"),
    _table("paper.txt", "--tol", "1e-12"),
    _table("closures.txt"),
    _table("closures.txt", "--format", "json"),
    _table("set_k0_negative.txt"),
    _table("set_k0_negative.txt", "--format", "json"),
    _table("perturb_k0_negative.txt", "--format", "json"),
    _table("set_and_perturb.txt"),
    _table("bad_bracket_value.txt"),
    _table("bad_bracket_arity.txt"),
    _table("reversed_bracket.txt"),
    _table("bad_target.txt"),
    _table("missing_target.txt"),
    _table("target_beside_balanced_trade.txt"),
    _table("closure_keys_without_closure.txt"),
    _table("bad_tolerance.txt"),
    _table("bad_max_iterations.txt"),
    _table("negative_max_iterations.txt"),
    _table("bad_sweep_grid.txt"),
    _table("unknown_kind.txt"),
    _table("fixed_without_rate.txt"),
    _table("zero_rate.txt"),
    _table("zero_rate.txt", "--format", "json"),
    _table("tiny_rate.txt", "--format", "json"),
    _table("failing_closure.txt", "--format", "json"),
    _table("no_convergence.txt"),
    _table("no_convergence_tol.txt"),
    _table("welfare_with_root_keys.txt"),
    _table("lower_rho.txt"),
    _table("missing_rate.txt"),
    _table("rate_and_closure.txt", "--format", "json"),
    _table("unknown_key.txt"),
    _table("repeated_key.txt"),
    _table("nan_rate.txt"),
    _table("missing.txt"),
    ["table", "--scenario-file", "tests/golden/inputs"],
    # instance files
    _with_instance("higher_a1.txt", "solve", "--rate", "0.4979",
                   "--format", "json"),
    _with_instance("k0_inf.txt", "solve", "--rate", "0.5"),
    _with_instance("two_bad.txt", "solve", "--rate", "0.5"),
    _with_instance("huge_n0.txt", "solve", "--rate", "0.4821"),
    _with_instance("huge_n0.txt", "schedules", "--grid=0.3,0.6,4"),
    _with_instance("huge_n0.txt", "schedules", "--grid=0.3,0.6,4",
                   "--format", "json"),
    _with_instance("large_population.txt", "schedules", "--grid=0.3,0.6,4",
                   "--format", "json"),
    _with_instance("large_population.txt", "schedules", "--grid=0.3,0.6,4"),
    _with_instance("huge_n0.txt", "sweep", "--closure", "welfare_sweep",
                   "--grid=0.3,0.6,4"),
    _with_instance("nan_income.txt", "solve", "--rate", "0.5"),
    _with_instance("steep.txt", "solve", "--rate", "-0.0999999"),
    _with_instance("steep.txt", "schedules", "--grid=-0.0999999,0.2,4"),
    _with_instance("tiny_years.txt", "table"),
    _with_instance("tiny_a1.txt", *_table("a_scenario.txt")),
    _with_instance("tiny_a1.txt", *_table("a_scenario.txt", "--format",
                                          "json")),
    # present output and the future wage's present value underflow to 0
    _with_instance("tiny_output.txt", "solve", "--rate", "0.5"),
    _with_instance("tiny_output.txt", "table"),
    _with_instance("tiny_output.txt", "sweep", "--closure",
                   "trade_share_target", "--target=-0.1"),
    _with_instance("tiny_output.txt", "schedules", "--grid=0.3,0.6,3"),
    _with_instance("tiny_future_wage.txt", *_table("rate_one.txt")),
    _with_instance("repeated.txt", "solve", "--rate", "0.5"),
    _with_instance("unknown_parameter.txt", "solve", "--rate", "0.5"),
    _with_instance("not_a_number.txt", "solve", "--rate", "0.5"),
    _with_instance("missing.txt", "solve", "--rate", "0.5"),
    ["solve", "--rate", "0.5", "--instance-file", "tests/golden/inputs"],
    # schedules, full and partial
    ["schedules"],
    ["schedules", "--format", "json"],
    ["schedules", "--mode", "partial", "--format", "json"],
    ["schedules", GRID_2000],
    ["schedules", GRID_2000, "--mode", "partial"],
    ["schedules", GRID_2000, "--format", "json"],
    ["schedules", GRID_2000, "--mode", "partial", "--format", "json"],
    _with_instance("partial_overflow.txt", "schedules",
                   "--grid=-0.09999999,10,3", "--rate", "10",
                   "--mode", "partial", "--format", "json"),
    ["schedules", "--rate", "nan"],
    ["schedules", "--grid=0.3,0.6,1"],
    ["schedules", "--grid=0.3,0.6,3", "--rate", "5"],
    # a grid whose span STOP - START overflows
    ["schedules", "--grid=-1e308,1.7e308,2"],
    ["sweep", "--closure", "welfare_sweep", "--grid=-1e308,1.7e308,2"],
    # the cli_cold mix of the benchmark
    ["schedules", "--grid=0.05,1.2,2000", "--format", "json"],
    ["check"],
]


def record(argv: list[str]) -> dict:
    """Run `argv` through cli.main and describe what it wrote and returned."""
    out, err = io.StringIO(), io.StringIO()
    entry: dict = {"argv": argv}
    stderr_lines = slice(None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry["exit"] = main(argv, out=out, err=err)
        except SystemExit as exc:       # an argparse usage error
            entry["exit"], stderr_lines = exc.code, slice(-1, None)
        except Exception as exc:        # recorded, so a change shows
            entry["raised"] = f"{type(exc).__name__}: {exc}"
    stdout = out.getvalue()
    if argv == ["check"]:
        stdout = _CRITERION_1_MS.sub(r"\1# ms)", stdout)
    if len(stdout) > VERBATIM_LIMIT:
        stdout = {"sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                  "length": len(stdout)}
    entry["stdout"] = stdout
    entry["stderr"] = "".join(err.getvalue().splitlines(True)[stderr_lines])
    return entry


def write_corpus() -> None:
    os.chdir(ROOT)
    entries = [record(argv) for argv in COMMANDS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    write_corpus()

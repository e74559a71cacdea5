"""Command-line front end.

Subcommands: solve, table, sweep, schedules, check.  Exit status 0 on
success/pass, 1 on a tolerance failure, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import TYPE_CHECKING

from . import configio, schedules
from .closure import KINDS, ClosureSpec, ConvergenceError, resolve_rate
from .model import solve_at_rate
from .scenarios import REFERENCE_TOLERANCE, paper_suite, run_suite
from .reference import ROW_KEYS, ROW_LABELS, baseline_instance

if TYPE_CHECKING:          # annotations only
    import numpy as np

# A grid point costs about 30 float64 values while it is evaluated.
MAX_GRID_POINTS = 1_000_000


def _add_common(parser):
    parser.add_argument("--instance-file", metavar="PATH",
                        help="flat key=value calibration file "
                             "(default: embedded baseline)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_closure(parser):
    parser.add_argument("--closure", choices=KINDS, required=True,
                        help="rate selection rule")
    parser.add_argument("--bracket", metavar="LO,HI",
                        help="search bracket for root-finding closures")
    parser.add_argument("--target", type=float,
                        help="tb0/y0 target for trade_share_target")
    parser.add_argument("--grid", metavar="START,STOP,POINTS",
                        help="rate grid for welfare_sweep")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and argparse looks up sys.stdout and sys.stderr when it
    writes."""
    parser = argparse.ArgumentParser(
        prog="openecon",
        description="Two-period open-economy equilibrium with the interest "
                    "rate as an input")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one equilibrium at a rate")
    _add_common(p)
    p.add_argument("--rate", type=float, required=True,
                   help="per-period real interest rate")

    p = sub.add_parser("table", help="run the comparative-statics suite")
    _add_common(p)
    p.add_argument("--scenario-file", metavar="PATH",
                   help="scenario definitions (default: embedded suite)")

    p = sub.add_parser("sweep", help="resolve a closure rule, then solve")
    _add_common(p)
    _add_closure(p)

    p = sub.add_parser("schedules", help="saving/investment curves on a rate grid")
    _add_common(p)
    p.add_argument("--rate", type=float,
                   help="reference rate: centres the default grid and anchors "
                        "partial mode (default 0.4821)")
    p.add_argument("--grid", metavar="START,STOP,POINTS",
                   help="rate grid (default 41 points around the reference rate)")
    p.add_argument("--mode", choices=("full", "partial"), default="full")

    sub.add_parser("check", help="run the acceptance suite")
    return parser


def _load_instance(args):
    if args.instance_file:
        return configio.read_instance(args.instance_file)
    return baseline_instance()


def _parse_fields(spec: str, option: str, form: str, types: tuple) -> list:
    """Split a comma-separated option value into len(types) typed fields."""
    parts = spec.split(",")
    try:
        if len(parts) == len(types):
            return [kind(part) for kind, part in zip(types, parts)]
    except ValueError:
        pass
    raise configio.ParseError(f"{option} must be {form}")


def _parse_grid(spec: str) -> np.ndarray:
    start, stop, points = _parse_fields(spec, "--grid", "START,STOP,POINTS",
                                        (float, float, int))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise configio.ParseError("--grid START and STOP must be finite")
    if points < 2 or stop <= start:
        raise configio.ParseError("--grid needs STOP > START and POINTS >= 2")
    if not math.isfinite(stop - start):
        raise configio.ParseError("--grid span STOP - START must be finite")
    if points > MAX_GRID_POINTS:
        raise configio.ParseError(
            f"--grid POINTS must be at most {MAX_GRID_POINTS}")
    import numpy as np
    return np.linspace(start, stop, points)


def _closure_from_args(args) -> ClosureSpec:
    return ClosureSpec(
        kind=args.closure, target_share=args.target,
        bracket=None if args.bracket is None else tuple(_parse_fields(
            args.bracket, "--bracket", "LO,HI", (float, float))),
        grid=() if args.grid is None else tuple(_parse_grid(args.grid)))


def _emit_equilibrium(eq, fmt, out, diagnostics=None):
    payload = vars(eq)
    if fmt == "json":
        if diagnostics is not None:
            payload = {"equilibrium": payload, "closure": vars(diagnostics)}
        out.write(configio.to_json(payload))
    else:
        rows = [[key, value] for key, value in payload.items()]
        if diagnostics is not None:
            rows.append(["closure_kind", diagnostics.kind])
            rows.append(["closure_iterations", diagnostics.iterations])
        out.write(configio.to_csv(rows))


def cmd_solve(args, out, err) -> int:
    eq = solve_at_rate(_load_instance(args), args.rate)
    _emit_equilibrium(eq, args.format, out)
    return 0


def cmd_table(args, out, err) -> int:
    instance = _load_instance(args)
    if args.scenario_file:
        scenario_list = configio.read_scenarios(args.scenario_file)
    else:
        scenario_list = paper_suite()
    report = run_suite(instance, scenario_list)

    if args.format == "json":
        out.write(configio.to_json({
            "scenarios": [vars(r) for r in report.results],
            "sign_checks": [vars(c) for c in report.sign_checks]}))
    else:
        # one column per scenario, one row per result label
        header = ["row"] + [r.name for r in report.results]
        body = [[ROW_LABELS[key]]
                + [r.rows.get(key, float("nan")) for r in report.results]
                for key in ROW_KEYS]
        out.write(configio.to_csv([header] + body))

    for result in report.results:
        if result.error:
            err.write(f"{result.name}: error: {result.error}\n")
        for key in result.failed_rows:
            err.write(f"{result.name}: row {ROW_LABELS[key]} deviates by "
                      f"{result.deviations[key]:.3g} "
                      f"(tolerance {REFERENCE_TOLERANCE:g})\n")
    for check in report.sign_checks:
        if not check.passed:
            err.write(f"sign check failed: {check.name}: {check.detail}\n")
    return 0 if report.passed else 1


def cmd_sweep(args, out, err) -> int:
    instance = _load_instance(args)
    rate, diag = resolve_rate(instance, _closure_from_args(args))
    _emit_equilibrium(solve_at_rate(instance, rate), args.format, out, diag)
    return 0


def cmd_schedules(args, out, err) -> int:
    rate = 0.4821 if args.rate is None else args.rate
    if not math.isfinite(rate):
        raise configio.ParseError("--rate must be finite")
    if args.mode == "full" and args.grid is not None and args.rate is not None:
        raise configio.ParseError("--rate does not apply to --mode full with --grid")
    instance = _load_instance(args)
    grid = (schedules.default_grid(rate) if args.grid is None
            else _parse_grid(args.grid))
    mode = "full_equilibrium" if args.mode == "full" else "partial"
    curve = schedules.compute_schedules(instance, grid, mode=mode, r_ref=rate)
    for index, message in curve.errors:
        err.write(f"grid point {index} (r={curve.grid[index]:.6g}) skipped: "
                  f"{message}\n")
    points = configio.Records({"r": curve.grid, "I0": curve.i0,
                               "S0N": curve.s0n, "S1X": curve.s1x,
                               "residual": curve.residual})
    if args.format == "json":
        out.write(configio.to_json({"mode": curve.mode, "points": points}))
    else:
        out.write(configio.to_csv(points))
    return 0


def cmd_check(args, out, err) -> int:
    from . import acceptance   # loads numpy; the other commands need not
    results = acceptance.run_all(emit=lambda line: out.write(line + "\n"))
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {
    "solve": cmd_solve,
    "table": cmd_table,
    "sweep": cmd_sweep,
    "schedules": cmd_schedules,
    "check": cmd_check,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = COMMANDS[args.command](args, out, err)
        out.flush()
    except BrokenPipeError:
        # The reader closed stdout (`openecon check | head -1`).  Point it at
        # devnull, as the Python docs' SIGPIPE note advises, and exit 1.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except (ValueError, ConvergenceError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

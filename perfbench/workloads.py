"""The benchmark's workloads, the output checks and the traced layer probe.

Every operation ends as ok, rejected or failed.  Rejected means openecon
raised (or, for a CLI process, exited 2 on) one of its documented input
errors where the input allows that; failed means anything else that is not
a correct result.  Only the calls into openecon are timed; checks run
outside the timed regions.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from io import StringIO
from time import perf_counter

import inputs
import oracle
from inputs import BASELINE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "perfbench", "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


class CheckFailed(Exception):
    pass


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_ENV = {**os.environ, **{var: "1" for var in THREAD_VARS},
             "PYTHONPATH": "src"}
CHILD_TIMEOUT = 120
# Fields of `Equilibrium` that are differences of levels, compared on y0's scale.
GAP_FIELDS = {"tb0", "tb1", "s0n", "s1x", "x0", "x1", "tax0", "tax1", "T0",
              "T1", "i0"}
IN_PROCESS_REL = 1e-9    # JSON carries 15 significant digits
CSV_REL = 2e-5           # CSV carries 6
CLOSURE_TOL = 2e-10      # twice the closures' default tolerance
# welfare_stationarity_check's default step; its result may differ from the
# reference by this share of the difference's rounding scale, max |U| / h
STATIONARITY_STEP = 1e-4
STATIONARITY_REL = 1e-12
CHECK_ERRORS = (CheckFailed, ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError)
SUITE_NAMES = ["base", "higher_theta", "capital", "balanced"]
SUITE_BRACKET = (0.01, 2.0)    # of the balanced-trade scenario, in inputs.py


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rejected_errors():
    """The documented input errors, from the package under test."""
    from openecon import (BracketError, ConvergenceError, DomainError,
                          InfeasibleError)
    from openecon.configio import ParseError
    return (DomainError, InfeasibleError, BracketError, ConvergenceError,
            ParseError)


# A shared 2-core Xeon VM was seen to switch between a fast and a slow speed
# (about 2x apart) for seconds to minutes at a time, which moves wall times
# by more than any bound worth gating on.  A fixed pure-Python loop,
# timed between operations, measures the host's speed at that moment; each
# operation's time is scaled to what it would be when that loop takes
# CALIBRATION_REFERENCE seconds.  Raw wall times are reported beside them.
CALIBRATION_REFERENCE = 0.6e-3
CALIBRATION_EVERY = 0.02


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of float powers and formatting."""
    start = perf_counter()
    acc = 0.0
    for j in range(750):
        x = (0.5 / (0.9 + j * 1e-4)) ** (1.0 / 0.7)
        acc += float(f"{x:.15g}")
    return perf_counter() - start


class Run:
    """Outcomes, op times and machine-independent counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rejected: Counter = Counter()
        self.failures: list[str] = []
        # (kind, end time, seconds, work); a kind is one distinct operation:
        # a command of the mix, one call on one grid instance, one economy
        self.ops: list[tuple[str, float, float, int]] = []
        self.calibration: list[tuple[float, float]] = []   # (time, seconds)
        self.cold: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.counting = True      # counts are taken over fixed work only
        self.checking = True      # off: outcomes are neither checked nor kept
        self.peak_rss_mb = 0.0    # largest child process of `cold` operations

    def timed(self, kind: str, seconds: float, work: int) -> None:
        self.ops.append((kind, perf_counter(), seconds, work))

    def calibrate(self) -> None:
        """Time the calibration loop, unless that was done very recently."""
        now = perf_counter()
        if not self.calibration or now - self.calibration[-1][0] >= CALIBRATION_EVERY:
            self.calibration.append((now, calibration_loop()))

    def scaled(self) -> list[tuple[str, float, int]]:
        """(kind, seconds at the reference host speed, work) per operation.

        Each operation is scaled by the mean of the calibrations just before
        it started and just after it ended.
        """
        times = [t for t, _ in self.calibration]
        out = []
        for kind, end, seconds, work in self.ops:
            before = bisect.bisect_right(times, end - seconds) - 1
            after = bisect.bisect_left(times, end)
            near = [self.calibration[j][1] for j in (before, after)
                    if 0 <= j < len(times)]
            speed = statistics.fmean(near) / CALIBRATION_REFERENCE if near else 1.0
            out.append((kind, seconds / speed, work))
        return out

    def op_ms(self, scaled: bool = True) -> float:
        """Geometric mean over kinds of operation of each kind's median time."""
        ops = self.scaled() if scaled else [(k, s, w) for k, _, s, w in self.ops]
        kinds: dict[str, list[float]] = defaultdict(list)
        for kind, seconds, _ in ops:
            kinds[kind].append(seconds)
        return 1e3 * math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in kinds.values()))

    def work_per_s(self, scaled: bool = True) -> float:
        ops = self.scaled() if scaled else [(k, s, w) for k, _, s, w in self.ops]
        return sum(w for _, _, w in ops) / sum(s for _, s, _ in ops)

    def settle(self, label: str, check, exc: BaseException | None = None) -> bool:
        """Run `check()`: the operation is then ok, or rejected with `exc`, or failed.

        Returns False when it failed.
        """
        if not self.checking:
            return True
        try:
            check()
        except CHECK_ERRORS as err:
            self.fail(f"{label}: {err}")
            return False
        if exc is None:
            self.ok()
        else:
            self.reject(exc)
        return True

    def ok(self) -> None:
        self.attempted += 1

    def reject(self, exc: BaseException) -> None:
        self.attempted += 1
        self.rejected[type(exc).__name__] += 1
        if self.counting:
            self.counts[f"rejected.{type(exc).__name__}"] += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def count(self, key: str, amount: int = 1) -> None:
        if self.counting:
            self.counts[key] += amount


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_equilibrium(got: dict, want: dict, rel: float) -> None:
    for key, value in want.items():
        scale = abs(want["y0"]) if key in GAP_FIELDS else 0.0
        expect(oracle.close(got.get(key), value, scale, rel),
               f"{key} = {got.get(key)!r}, expected {value!r}")


def parse_csv(text: str) -> list[list]:
    def cell(value):
        if value in ("true", "false"):
            return value == "true"
        try:
            return float(value)
        except ValueError:
            return value
    return [[cell(v) for v in line.split(",")] for line in text.splitlines()]


def check_solve_json(text: str, params: dict, rate: float) -> None:
    check_equilibrium(json.loads(text), oracle.equilibrium(params, rate),
                      IN_PROCESS_REL)


def check_table_json(text: str) -> None:
    payload = json.loads(text)
    golden = GOLDEN["table"]
    got = payload["scenarios"]
    expect([s["name"] for s in got] == [s["name"] for s in golden["scenarios"]],
           "table scenario names differ")
    for have, want in zip(got, golden["scenarios"]):
        expect(have["error"] is None and not have["failed_rows"],
               f"table {have['name']}: {have['error'] or have['failed_rows']}")
        for key, value in want["rows"].items():
            expect(oracle.close(have["rows"].get(key), value, 0.0,
                                IN_PROCESS_REL),
                   f"table {have['name']}.{key} = {have['rows'].get(key)!r}")
    expect([(c["name"], c["passed"]) for c in payload["sign_checks"]]
           == [(c["name"], c["passed"]) for c in golden["sign_checks"]],
           "table sign checks differ")


def check_balanced_csv(text: str) -> None:
    rows = {row[0]: row[1] for row in parse_csv(text)}
    r_star = GOLDEN["balanced_trade_rate"]
    expect(rows.get("closure_kind") == "balanced_trade", "closure kind")
    expect(oracle.close(rows.get("r"), r_star, 0.0, CSV_REL), "balanced r*")
    check_equilibrium({k: v for k, v in rows.items() if k != "r"},
                      {k: v for k, v in oracle.equilibrium(BASELINE, r_star).items()
                       if k != "r"}, CSV_REL)


def check_check_output(text: str, code: int) -> None:
    """The acceptance suite: exactly criterion 8 red."""
    status = {}
    for line in text.splitlines():
        word, _, rest = line.split(None, 2)
        status[rest.split(":")[0]] = word
    expect(status == GOLDEN["check"]["status"], f"check verdicts {status}")
    expect(code == GOLDEN["check"]["exit_code"], f"check exit code {code}")


class Schedules:
    """Expected schedule points from the reference equations, cached."""

    def __init__(self):
        self._cache: dict = {}

    def expected(self, params: dict, grid: tuple, mode: str, r_ref: float):
        key = (id(params), grid, mode, r_ref)
        if key not in self._cache:
            rates = inputs.linspace(*grid)
            if mode == "full":
                points = []
                for r in rates:
                    eq = oracle.solve_or_none(params, r)
                    points.append(None if eq is None else
                                  (eq["i0"], eq["s0n"], eq["s1x"], eq["y0"]))
            else:
                ref = oracle.equilibrium(params, r_ref)
                points = [None if pt is None else (*pt, ref["y0"]) for pt in
                          (oracle.partial_point(params, ref, r) for r in rates)]
            self._cache[key] = (rates, points)
        return self._cache[key]

    def check(self, text: str, fmt: str, params: dict, grid: tuple, mode: str,
              r_ref: float) -> int:
        """Compare every point; return the number of skipped points."""
        rates, points = self.expected(params, grid, mode, r_ref)
        if fmt == "json":
            payload = json.loads(text)
            expect(payload["mode"] == ("full_equilibrium" if mode == "full"
                                       else "partial"), "schedule mode")
            got = [(p["r"], p["I0"], p["S0N"], p["S1X"], p["residual"])
                   for p in payload["points"]]
            rel = IN_PROCESS_REL
        else:
            rows = parse_csv(text)
            expect(rows[0] == ["r", "I0", "S0N", "S1X", "residual"], "CSV header")
            got = [tuple(row) for row in rows[1:]]
            rel = CSV_REL
        expect(len(got) == len(rates), f"{len(got)} points, expected {len(rates)}")
        skipped = 0
        for r_want, want, (r, i0, s0n, s1x, residual) in zip(rates, points, got):
            expect(oracle.close(r, r_want, 1.0, rel), f"grid rate {r}")
            if want is None:
                skipped += 1
                expect(all(v is None or (isinstance(v, float) and math.isnan(v))
                           for v in (i0, s0n, s1x, residual)),
                       f"point r={r} should be skipped")
                continue
            scale = abs(want[3])
            for value, expected in zip((i0, s0n, s1x), want):
                expect(oracle.close(value, expected, scale, rel),
                       f"schedule point r={r}: {value!r} != {expected!r}")
            size = max(abs(i0), abs(s0n), abs(s1x), scale)
            expect(abs(residual - (s0n + s1x - i0)) <= rel * size,
                   f"schedule residual at r={r}")
        return skipped


def check_welfare_sweep(text: str, params: dict, sweep: tuple) -> None:
    payload = json.loads(text)
    eq = payload["equilibrium"]
    expect(payload["closure"]["kind"] == "welfare_sweep", "closure kind")
    expect(sweep[0] - 1e-12 <= eq["r"] <= sweep[1] + 1e-12, "r outside grid")
    check_equilibrium(eq, oracle.equilibrium(params, eq["r"]), IN_PROCESS_REL)
    best = max(oracle.equilibrium(params, r)["welfare"]
               for r in inputs.linspace(*sweep))
    expect(eq["welfare"] >= best - 1e-9 * abs(best), "not the welfare argmax")


# ---------------------------------------------------------------------------
# Command lines
# ---------------------------------------------------------------------------

MIX = ("solve", "table", "sweep", "schedules", "check")


def mix_argv(command: str, args: dict) -> list[str]:
    if command == "solve":
        return ["solve", "--rate", repr(args["rate"]), "--format", "json"]
    if command == "table":
        return ["table", "--format", "json"]
    if command == "sweep":
        return ["sweep", "--closure", "balanced_trade", "--bracket", "0.4821,2.0"]
    if command == "schedules":
        return ["schedules", inputs.grid_arg(args["grid"]), "--format", "json"]
    return ["check"]


def check_mix(command: str, args: dict, code: int | None, text: str,
              schedules: Schedules) -> None:
    expect(code is not None, f"raised {text}")
    if command == "check":
        check_check_output(text, code)
        return
    expect(code == 0, f"exit code {code}")
    if command == "solve":
        check_solve_json(text, BASELINE, args["rate"])
    elif command == "table":
        check_table_json(text)
    elif command == "sweep":
        check_balanced_csv(text)
    else:
        schedules.check(text, "json", BASELINE, args["grid"], "full", 0.4821)


def grid_calls(case: dict, path: str) -> list[tuple[str, list[str], int]]:
    """(kind, argv, rate points) for the five in-process calls on one case."""
    grid, ref = inputs.grid_arg(case["grid"]), repr(case["r_ref"])
    base = ["schedules", "--instance-file", path, grid]
    return [
        ("full_json", base + ["--mode", "full", "--format", "json"],
         case["grid"][2]),
        ("full_csv", base + ["--mode", "full", "--format", "csv"],
         case["grid"][2]),
        ("partial_json", base + ["--mode", "partial", "--rate", ref,
                                 "--format", "json"], case["grid"][2]),
        ("partial_csv", base + ["--mode", "partial", "--rate", ref,
                                "--format", "csv"], case["grid"][2]),
        ("welfare_sweep", ["sweep", "--instance-file", path,
                           "--closure", "welfare_sweep",
                           inputs.grid_arg(case["sweep"]), "--format", "json"],
         case["sweep"][2]),
    ]


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; return it and its own peak RSS in MB.

    The output is read to its end and the child is reaped with a blocking
    `os.wait4`, which also gives the child's resource usage.
    `subprocess.run(timeout=...)` instead waits for the exit by polling with
    sleeps of up to 50 ms, which would land in the measured time.  A timer
    kills the child after CHILD_TIMEOUT.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return (subprocess.CompletedProcess(argv, proc.returncode, out, err[0]),
            usage.ru_maxrss / 1024.0)


def cold(argv: list[str]) -> tuple[float, subprocess.CompletedProcess, float]:
    """One fresh interpreter, strictly after the previous one has ended.

    Returns its wall time, the finished process and its peak RSS in MB.
    """
    start = perf_counter()
    proc, rss_mb = run_child([sys.executable, *argv])
    return perf_counter() - start, proc, rss_mb


def in_process(argv: list[str]) -> tuple[float, int | None, str]:
    """Time one `cli.main` call; an exception it lets out gives code None."""
    from openecon import cli
    out, err = StringIO(), StringIO()
    start = perf_counter()
    try:
        code = cli.main(argv, out=out, err=err)
    except Exception as exc:  # noqa: BLE001  (a failed operation, not ours)
        return perf_counter() - start, None, repr(exc)
    return perf_counter() - start, code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs, set-up and one pass of operations."""

    name = ""
    in_process = True
    peak_inputs = 0   # inputs (from the first) the peak-RSS child runs a pass on

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.schedules = Schedules()

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def make_inputs(self, count: int | None = None):
        """The first `count` (default all) seeded inputs of a pass.

        Making them is the benchmark's own work, outside set-up time.
        """
        return None

    def setup(self, made) -> None:
        """Set up openecon for the workload, given `make_inputs()`."""
        raise NotImplementedError

    def ops(self, index: int) -> list:
        """The operations of pass `index`, each a callable taking a Run."""
        raise NotImplementedError


class CliCold(Workload):
    name = "cli_cold"
    in_process = False

    def setup(self, made) -> None:
        seconds, proc, _ = cold(["-m", "openecon.cli", "solve", "--rate", "0.4821",
                                 "--format", "json"])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up solve failed: {proc.stderr.strip()}")

    def ops(self, index: int) -> list:
        # A child's getrusage peak starts from the RSS of the process that
        # forked it, so the main process drops expectations it will not
        # need again.
        self.schedules = Schedules()
        args = inputs.cli_round(self.seed, index)
        order = MIX[index % len(MIX):] + MIX[:index % len(MIX)]
        return [lambda run, c=c: self.command(run, c, args) for c in order]

    def command(self, run: Run, command: str, args: dict) -> None:
        seconds, proc, rss_mb = cold(["-m", "openecon.cli",
                                      *mix_argv(command, args)])
        run.timed(command, seconds, 1)
        run.cold[command].append(seconds)
        run.peak_rss_mb = max(run.peak_rss_mb, rss_mb)
        if command != "check":    # its output carries a run time
            run.count(f"stdout_bytes.{command}", len(proc.stdout))
        run.settle(f"{command} (stderr: {proc.stderr[-300:]})",
                   lambda: check_mix(command, args, proc.returncode,
                                     proc.stdout, self.schedules))


class GridDense(Workload):
    name = "grid_dense"
    peak_inputs = 1   # every instance has the same sizes

    def make_inputs(self, count: int | None = None):
        return inputs.grid_cases(self.seed)[:count]

    def setup(self, made) -> None:
        from openecon import cli  # noqa: F401  (the import is part of set-up)
        self.prepare(made)
        # warm-up: each kind of call once, on short grids
        case = self.cases[0]
        warm = dict(case, grid=(*case["grid"][:2], 101),
                    sweep=(*case["sweep"][:2], 11))
        for kind, argv, points in grid_calls(warm, self.paths[0]):
            seconds, code, text = in_process(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {kind} exited {code}")

    def prepare(self, cases: list[dict]) -> None:
        """Write one instance file per case and list the calls of a pass."""
        self.cases, self.paths, self.calls = cases, [], []
        for case in cases:
            path = self.write(f"{case['name']}.txt", case["text"])
            self.paths.append(path)
            self.calls += [(case, *call) for call in grid_calls(case, path)]

    def ops(self, index: int) -> list:
        return [lambda run, c=c: self.call(run, *c) for c in self.calls]

    def call(self, run: Run, case: dict, kind: str, argv: list[str],
             points: int) -> None:
        seconds, code, text = in_process(argv)
        run.timed(f"{case['name']}.{kind}", seconds, points)
        run.count(f"stdout_bytes.{kind}", len(text))

        def check():
            expect(code == 0, f"exit code {code}: {text[:200]}")
            if kind == "welfare_sweep":
                check_welfare_sweep(text, case["params"], case["sweep"])
            else:
                mode, fmt = kind.split("_")
                skipped = self.schedules.check(text, fmt, case["params"],
                                               case["grid"], mode,
                                               case["r_ref"])
                run.count(f"skipped_points.{kind}", skipped)
        run.settle(f"{kind} {case['name']}", check)


class Economies(Workload):
    name = "economies"
    peak_inputs = 512

    def make_inputs(self, count: int | None = None):
        return inputs.economies(self.seed, count or inputs.ECONOMIES_PER_PASS)

    def setup(self, made) -> None:
        self.prepare(made)
        warm_up = Run()
        warm_up.checking = False
        for e in self.economies[:8]:
            self.economy(warm_up, e)

    def prepare(self, economies: list[dict]) -> None:
        """Parse each economy's instance text; build its closure specs."""
        from openecon import ClosureSpec, configio
        self.economies = economies
        for e in economies:
            e["instance"] = configio.parse_instance(e["text"])
            e["balanced"] = ClosureSpec("balanced_trade")
            e["share"] = ClosureSpec("trade_share_target",
                                     target_share=e["target_share"])

    def ops(self, index: int) -> list:
        return [lambda run, e=e: self.economy(run, e) for e in self.economies]

    def economy(self, run: Run, e: dict) -> None:
        """Closures, a solve, the stationarity probe and a parsed suite."""
        from openecon import (configio, resolve_rate, run_suite, solve_at_rate,
                              welfare_stationarity_check)
        rejected = rejected_errors()
        p = e["params"]
        elapsed = 0.0

        def call(label, check, fn, *args):
            """Time fn(*args), then settle it as ok, rejected or failed."""
            nonlocal elapsed
            start = perf_counter()
            try:
                result, exc = fn(*args), None
            except rejected as err:
                result, exc = None, err
            except Exception as err:  # noqa: BLE001  (counted as failed)
                elapsed += perf_counter() - start
                run.fail(f"{e['name']} {label}: {err!r}")
                return None
            elapsed += perf_counter() - start
            ok = run.settle(f"{e['name']} {label}", lambda: check(result, exc), exc)
            return result if ok else None

        r_star = None
        for label, spec in (("resolve balanced", e["balanced"]),
                            ("resolve share", e["share"])):
            result = call(label, lambda res, exc, spec=spec:
                          self.check_resolve(p, spec, res, exc),
                          resolve_rate, e["instance"], spec)
            if result is None:
                continue
            rate, diag = result
            run.count("closure.resolves")
            run.count("closure.evaluations", diag.evaluations)
            run.count("closure.iterations", diag.iterations)
            if spec.kind == "balanced_trade":
                r_star = rate

        rate = r_star if r_star is not None else e["fallback_rate"]
        call("solve", lambda eq, exc: self.check_solve(p, rate, eq, exc),
             solve_at_rate, e["instance"], rate)
        call("stationarity", lambda slope, exc: self.check_stationarity(
            p, rate, slope, exc), welfare_stationarity_check, e["instance"], rate)
        scenarios = call("parse_scenarios", lambda res, exc: expect(
            exc is None and [s.name for s in res] == SUITE_NAMES,
            f"parsed scenarios {exc or [s.name for s in res]}"),
            configio.parse_scenarios, e["scenarios"])
        if scenarios is not None:
            call("run_suite", lambda report, exc: self.check_suite(
                run, p, e["suite"], report, exc),
                run_suite, e["instance"], scenarios)
        run.timed(e["name"], elapsed, 1)

    # Some draws are legitimately rejected; each check makes sure the
    # outcome, a result or a rejection, agrees with the reference equations.
    @staticmethod
    def check_resolve(p, spec, result, exc) -> None:
        target = spec.target_share if spec.kind == "trade_share_target" else 0.0
        lo, hi = spec.bracket
        if exc is None:
            rate, _ = result
            expect(lo <= rate <= hi, f"r* = {rate} outside the bracket")
            eq = oracle.equilibrium(p, rate)
            expect(abs(eq["tb0"] / eq["y0"] - target) <= CLOSURE_TOL,
                   f"objective not zero at r* = {rate}")
            return
        check_closure_rejection(p, lambda eq: eq["tb0"] / eq["y0"] - target,
                                spec, (type(exc).__name__,))

    @staticmethod
    def check_solve(p, rate, eq, exc) -> None:
        if exc is not None:
            expect(oracle.solve_or_none(p, rate) is None, f"rejected: {exc}")
            return
        check_equilibrium({f: getattr(eq, f) for f in eq.__dataclass_fields__},
                          oracle.equilibrium(p, rate), IN_PROCESS_REL)
        walras = abs(eq.tb0 + eq.tb1 / (1.0 + eq.r))
        saving_gap = abs(eq.s0n + eq.s1x - eq.i0)
        expect(walras <= 1e-9 * eq.y0, f"Walras gap {walras}")
        expect(saving_gap <= 1e-9 * eq.y0, f"saving-investment gap {saving_gap}")

    @staticmethod
    def check_stationarity(p, rate, slope, exc) -> None:
        h = STATIONARITY_STEP
        if exc is not None:
            expect(type(exc).__name__ in ("DomainError", "InfeasibleError")
                   and any(oracle.solve_or_none(p, r) is None
                           for r in (rate - h, rate, rate + h)),
                   f"rejected: {exc!r}")
            return
        want, scale = oracle.stationarity(p, rate, h)
        expect(abs(slope - want) <= STATIONARITY_REL * scale,
               f"dU/dr = {slope!r}, expected {want!r}")

    @staticmethod
    def check_suite(run, p, suite, report, exc) -> None:
        expect(exc is None, f"run_suite raised {exc!r}")
        expect([r.name for r in report.results] == SUITE_NAMES, "suite order")
        errors = 0
        for result, scenario in zip(report.results, suite):
            if scenario is None:       # balanced trade over SUITE_BRACKET
                if result.error is not None:
                    # the suite keeps only the message; either rejection will do
                    from openecon import ClosureSpec
                    spec = ClosureSpec("balanced_trade", bracket=SUITE_BRACKET)
                    check_closure_rejection(
                        p, lambda eq: eq["tb0"] / eq["y0"], spec,
                        ("BracketError", "InfeasibleError"), result.error)
                    errors += 1
                    continue
                want = oracle.equilibrium(p, result.rows["r"])
                expect(SUITE_BRACKET[0] <= want["r"] <= SUITE_BRACKET[1]
                       and abs(want["tb0"]) <= CLOSURE_TOL * want["y0"],
                       f"balanced scenario not balanced at r = {want['r']}")
            else:
                params, rate = scenario
                want = oracle.solve_or_none(params, rate)
                if want is None:
                    expect(result.error is not None, f"{result.name} should fail")
                    errors += 1
                    continue
            expect(result.error is None, f"{result.name}: {result.error}")
            for key, value in oracle.report_rows(p if scenario is None
                                                 else params, want).items():
                scale = abs(want["y0"]) if key in ("tb0", "i0") else 0.0
                expect(oracle.close(result.rows[key], value, scale,
                                    IN_PROCESS_REL),
                       f"{result.name}.{key} = {result.rows[key]!r}")
        run.count("scenarios.errors", errors)


def check_closure_rejection(p: dict, objective, spec, kinds: tuple[str, ...],
                            message: str = "") -> None:
    """A root-finding closure raised one of `kinds`: may the input do that?

    BracketError needs feasible ends of one sign.  InfeasibleError needs a
    rate in the bracket with no equilibrium, at a point bisection would try
    or on a fine grid.  ConvergenceError needs bisection itself to run out
    of iterations.  Everything is judged on the reference equations.
    """
    lo, hi = spec.bracket
    outcome, _ = oracle.bisect(p, objective, lo, hi, spec.tolerance,
                               spec.max_iterations)
    allowed = {
        "BracketError": outcome == "bracket",
        "InfeasibleError": outcome == "infeasible"
        or oracle.infeasible_between(p, lo, hi),
        "ConvergenceError": outcome == "convergence",
    }
    what = " or ".join(kinds) + (f" ({message})" if message else "")
    expect(any(allowed.get(kind, False) for kind in kinds),
           f"{what}, but the reference bisection ends with {outcome}")


WORKLOADS = {w.name: w for w in (CliCold, GridDense, Economies)}

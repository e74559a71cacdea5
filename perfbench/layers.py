"""The traced run: a fixed probe through every module, then per-layer metrics.

The probe is the same fixed, seeded work on every workload, so that each
layer has a number on each of them and every count in it repeats exactly.
Times come from every span of the traced run (probe plus the workload's
traced passes); counts come from the probe alone.
"""

from __future__ import annotations

import glob
import os
import statistics

import inputs
from spans import Tracer
from workloads import (MIX, ROOT, Economies, GridDense, Run, check_mix, cold,
                       expect, in_process, mix_argv)

PROBE_GRID_CASES = 2
PROBE_ECONOMIES = 32
REPEATS = 3
ROOT_FINDING = ("closure.resolve_rate.balanced_trade",
                "closure.resolve_rate.trade_share_target")
REJECTIONS = ("BracketError", "InfeasibleError", "ConvergenceError")


def median(values) -> float:
    if not values:
        raise ValueError("no samples for a per-layer metric")
    return statistics.median(values)


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated (statistics' exclusive method)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "openecon", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Probe:
    """Fixed work through every layer; its results feed `per_layer`."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.run = Run()
        self.interpreter: list[float] = []
        self.imports: list[float] = []
        self.main: dict[str, list[float]] = {c: [] for c in MIX}

    def cold_ok(self, argv: list[str]) -> float:
        seconds, proc, _ = cold(argv)
        self.run.settle(f"probe cold {argv}", lambda: expect(
            proc.returncode == 0, f"exit {proc.returncode}"))
        return seconds

    def execute(self) -> None:
        from openecon import acceptance
        run = self.run
        for _ in range(REPEATS):
            self.interpreter.append(self.cold_ok(["-c", "pass"]))
            self.imports.append(self.cold_ok(["-c", "import openecon.cli"]))

        args = inputs.cli_round(self.seed, 0)
        grid = GridDense(self.seed, self.workdir)
        for command in MIX:
            seconds, proc, _ = cold(["-m", "openecon.cli",
                                     *mix_argv(command, args)])
            run.cold[command].append(seconds)
            run.settle(f"probe {command}", lambda: check_mix(
                command, args, proc.returncode, proc.stdout, grid.schedules))

        for rep in range(REPEATS):
            for command in MIX:
                seconds, code, text = in_process(mix_argv(command, args))
                self.main[command].append(seconds)
                if rep == 0 and command == "check":
                    run.count("failed_criteria", sum(
                        line.startswith("FAIL") for line in text.splitlines()))
                elif rep == 0:    # check's output carries a run time
                    run.count("stdout_bytes", len(text))
                run.settle(f"probe {command}", lambda: check_mix(
                    command, args, code, text, grid.schedules))

        grid.prepare(inputs.grid_cases(self.seed)[:PROBE_GRID_CASES])
        for op in grid.ops(0):
            op(run)

        economies = Economies(self.seed, self.workdir)
        economies.prepare(inputs.economies(self.seed)[:PROBE_ECONOMIES])
        for op in economies.ops(0):
            op(run)

        for _ in range(REPEATS):
            acceptance.sample_feasible_instances(100, acceptance.CHECK_RATES)
            results = acceptance.run_all(emit=lambda line: None)
            run.settle("probe run_all", lambda: expect(
                [r.number for r in results if not r.passed] == [8],
                "acceptance verdicts"))


def per_layer(probe: Probe, tracer: Tracer, probe_spans: int,
              cold_times: dict, overhead: float, failed_ratio: float) -> dict:
    """Every per-layer metric by name, as (value, unit)."""
    spans = tracer.summary()
    probe_summary = tracer.summary(0, probe_spans)
    counts = probe.run.counts

    def durations(*names):
        return [d for name in names for d in spans.get(name, {}).get("durations", [])]

    def per_point(name, min_size=1):
        return [d / size for size, d in spans.get(name, {}).get("sized", [])
                if size >= min_size]

    def errors(kind):
        return sum(s["errors"][kind] for name, s in probe_summary.items()
                   if name.startswith(("closure.resolve_rate",
                                       "closure.welfare_stationarity_check")))

    model_self = sum(s["self"] for name, s in spans.items()
                     if name.startswith("model."))
    resolve = durations(*ROOT_FINDING)
    metrics = {
        "model.solve_us": (median(durations("model.solve_at_rate")) * 1e6, "us"),
        "model.calls": (probe_summary["model.solve_at_rate"]["calls"], "count"),
        "model.self_share": (model_self / spans[""]["total"], "ratio"),
        "closure.evals_per_resolve": (
            counts["closure.evaluations"] / counts["closure.resolves"], "count"),
        "closure.iters_per_resolve": (
            counts["closure.iterations"] / counts["closure.resolves"], "count"),
        "closure.resolve_us": (median(resolve) * 1e6, "us"),
        "closure.resolve_p99_us": (quantile(resolve, 99) * 1e6, "us"),
        "closure.sweep_us_per_point": (
            median(per_point("closure.resolve_rate.welfare_sweep")) * 1e6, "us"),
        "closure.stationarity_us": (
            median(durations("closure.welfare_stationarity_check")) * 1e6, "us"),
        **{f"closure.rejected.{kind}": (errors(kind), "count")
           for kind in REJECTIONS},
        "scenarios.run_suite_us": (
            median(durations("scenarios.run_suite")) * 1e6, "us"),
        "scenarios.scenario_errors": (counts["scenarios.errors"], "count"),
        "schedules.full_us_per_point": (
            median(per_point("schedules.compute_schedules.full")) * 1e6, "us"),
        "schedules.partial_us_per_point": (
            median(per_point("schedules.compute_schedules.partial")) * 1e6, "us"),
        "schedules.skipped_points": (
            sum(v for k, v in counts.items() if k.startswith("skipped_points.")),
            "count"),
        "configio.to_json_us_per_point": (
            median(per_point("configio.to_json", 1000)) * 1e6, "us"),
        "configio.to_csv_us_per_point": (
            median(per_point("configio.to_csv", 1000)) * 1e6, "us"),
        "configio.stdout_bytes": (
            sum(v for k, v in counts.items() if k.startswith("stdout_bytes")),
            "count"),
        "configio.parse_scenarios_us": (
            median(durations("configio.parse_scenarios")) * 1e6, "us"),
        "acceptance.run_all_ms": (
            median(durations("acceptance.run_all")) * 1e3, "ms"),
        **{f"acceptance.criterion_{n}_ms": (
            median(durations(f"acceptance.criterion_{n}")) * 1e3, "ms")
           for n in (3, 4, 5)},
        "acceptance.sample_ms": (median(
            [d for size, d in spans["acceptance.sample_feasible_instances"]["sized"]
             if size == 20]) * 1e3, "ms"),
        "acceptance.failed_criteria": (counts["failed_criteria"], "count"),
        "cli.interpreter_ms": (median(probe.interpreter) * 1e3, "ms"),
        "cli.import_ms": (
            (median(probe.imports) - median(probe.interpreter)) * 1e3, "ms"),
        **{f"cli.main_ms.{c}": (median(probe.main[c]) * 1e3, "ms") for c in MIX},
        **{f"cli.cold_ms.{c}": (median(cold_times[c]) * 1e3, "ms") for c in MIX},
        "repo.src_lines": (src_lines(), "count"),
        "trace.spans": (probe_spans, "count"),
        "trace.overhead_share": (overhead, "ratio"),
        "bench.failed_ratio": (failed_ratio, "ratio"),
    }
    return metrics

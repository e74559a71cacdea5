#!/usr/bin/env python3
"""openecon benchmark.

    python3 perfbench/run.py --workload {cli_cold,grid_dense,economies} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; openecon is imported from `src/`,
never from an installed copy.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  The line before it records the environment and the counts
that do not depend on the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from importlib import metadata
from time import perf_counter

_IMPORT_START = perf_counter()
import layers      # noqa: E402  (the benchmark's own modules, timed)
import workloads   # noqa: E402
from spans import Tracer   # noqa: E402
IMPORT_S = perf_counter() - _IMPORT_START

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
SPAN_CAP = 250_000          # stop tracing passes beyond this many spans


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child processes: time one set-up, or set up and run for peak RSS
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--peak-only", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform()}


def child(args, flag: str, name: str):
    """Run this script with `flag WORKDIR`; return wall time and process."""
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}-{name}")
    start = perf_counter()
    try:
        proc, _ = workloads.run_child(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             flag, workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} child failed: {proc.stderr.strip()}")
    return perf_counter() - start, proc


def timed_setup(args, j: int) -> float:
    """Time of a fresh process that does the whole set-up.

    The child reports the time of the benchmark's own work (importing its
    modules, making the seeded inputs), which is taken off.  The time is
    scaled to the reference host speed like an operation's.
    """
    def speed():
        return statistics.median(workloads.calibration_loop() for _ in range(3))

    before = speed()
    seconds, proc = child(args, "--setup-only", f"setup{j}")
    seconds -= json.loads(proc.stdout.splitlines()[-1])["own_s"]
    return seconds * workloads.CALIBRATION_REFERENCE / ((before + speed()) / 2)


def setup_child(cls, args) -> None:
    """Set up in a fresh process, printing the time of the benchmark's own work."""
    os.makedirs(args.setup_only)
    workload = cls(args.seed, args.setup_only)
    start = perf_counter()
    made = workload.make_inputs()
    own_s = IMPORT_S + perf_counter() - start
    workload.setup(made)
    print(json.dumps({"own_s": own_s}))


def peak_child(cls, args) -> None:
    """Set up, then run one pass over the first `peak_inputs` inputs, unchecked.

    No output is checked, so the process's peak RSS is openecon's, the
    interpreter's and that of the inputs, and none of it the checker's.
    Prints that peak.
    """
    os.makedirs(args.peak_only)
    workload = cls(args.seed, args.peak_only)
    workload.setup(workload.make_inputs(workload.peak_inputs))
    run = workloads.Run()
    run.checking = False
    for op in workload.ops(0):
        op(run)
    print(json.dumps({"peak_rss_mb": own_peak_rss_mb()}))


def own_peak_rss_mb() -> float:
    """VmHWM of this process.

    Unlike `getrusage`, it starts afresh at exec, so it leaves out the RSS
    of the parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, run, args) -> float:
    """Run passes for `args.seconds`; return the median set-up time.

    Counts come from the first pass only.  The SETUP_REPEATS set-ups are
    spread evenly over the run, so that their median sees the host in the
    same states as the operations do.
    """
    start = perf_counter()
    deadline = start + args.seconds
    setups: list[float] = []

    def setup_due() -> bool:
        return (len(setups) < SETUP_REPEATS and perf_counter()
                >= start + len(setups) * args.seconds / SETUP_REPEATS)

    index, done = 0, False
    while not done:
        for op in workload.ops(index):
            if setup_due():
                setups.append(timed_setup(args, len(setups)))
            run.calibrate()
            op(run)
            run.calibrate()
            if index and perf_counter() >= deadline:
                break
        run.counting = False
        index += 1
        done = perf_counter() >= deadline
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(args, len(setups)))
    return statistics.median(setups)


def peak_rss_mb(workload, run, args) -> float:
    """Largest openecon process: a `cli_cold` command, or the peak child."""
    if not workload.in_process:
        return run.peak_rss_mb
    proc = child(args, "--peak-only", "peak")[1]
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]


def end_to_end(workload, run, setup_s: float, args) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload, run, args), "MB"),
        "op_ms": (run.op_ms(), "ms"),
        "work_per_s": (run.work_per_s(), "1/s"),
    }


def traced(workload, run, seed: int, deadline: float, workdir: str) -> dict:
    """Probe under tracing, then alternate untraced and traced passes."""
    tracer = Tracer()
    probe = layers.Probe(seed, os.path.join(workdir, "probe"))
    os.makedirs(probe.workdir)
    tracer.install()
    try:
        probe.execute()
    finally:
        tracer.uninstall()
    probe_spans = len(tracer)

    # Each op runs once untraced and once traced, so both see the same work.
    plain, traced_run = workloads.Run(), workloads.Run()
    plain.counting = traced_run.counting = False
    index, done = 0, False
    while not done:
        for op in workload.ops(index):
            for target, use_tracer in ((plain, False), (traced_run, True)):
                target.calibrate()
                if use_tracer:
                    tracer.install()
                try:
                    op(target)
                finally:
                    tracer.uninstall()
                target.calibrate()
            done = perf_counter() >= deadline or len(tracer) >= SPAN_CAP
            if done:
                break
        index += 1
    for part in (probe.run, plain, traced_run):
        run.attempted += part.attempted
        run.failed += part.failed
        run.failures += part.failures[:5]
        run.rejected.update(part.rejected)
    overhead = plain.work_per_s() / traced_run.work_per_s() - 1.0
    cold_times = {c: probe.run.cold[c] + plain.cold[c] + traced_run.cold[c]
                  for c in workloads.MIX}
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{workload.name}-{seed}.csv"))
    run.counts.update(probe.run.counts)
    return layers.per_layer(probe, tracer, probe_spans, cold_times, overhead,
                            run.failed / max(run.attempted, 1))


def sentinel(run) -> None:
    """Reference table, balanced-trade rate and acceptance verdicts, in-process."""
    for command in ("table", "sweep", "check"):
        seconds, code, text = workloads.in_process(
            workloads.mix_argv(command, {}))
        run.settle(f"sentinel {command}", lambda: workloads.check_mix(
            command, {}, code, text, None))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(spec, argv)
    if not os.path.isfile(os.path.join(SRC, "openecon", "__init__.py")):
        print(f"error: no openecon sources under {SRC}", file=sys.stderr)
        return 2
    for var in workloads.THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the main process and every child it starts: the calibration
    # loop then measures the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        setup_child(cls, args)
        return 0
    if args.peak_only:
        peak_child(cls, args)
        return 0

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = cls(args.seed, workdir)
        workload.setup(workload.make_inputs())
        run = workloads.Run()
        if workload.in_process or args.trace:
            import openecon
            if not os.path.abspath(openecon.__file__).startswith(SRC + os.sep):
                print(f"error: openecon imported from {openecon.__file__}",
                      file=sys.stderr)
                return 2
            sentinel(run)
        if args.trace:
            metrics = traced(workload, run, args.seed,
                             perf_counter() + args.seconds, workdir)
            wanted = spec["per_layer"]
        else:
            setup_s = measure(workload, run, args)
            metrics = end_to_end(workload, run, setup_s, args)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass    # another run is still using it

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(set(names) ^ set(metrics))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    info = {"env": environment(), "counts": dict(sorted(run.counts.items())),
            "main_rss_mb": own_peak_rss_mb(),
            "rejected": dict(sorted(run.rejected.items())),
            "src_lines": layers.src_lines()}
    if run.ops:
        info["unscaled"] = {
            "op_ms": run.op_ms(scaled=False),
            "work_per_s": run.work_per_s(scaled=False),
            "calibration_ms": statistics.median(
                s for _, s in run.calibration) * 1e3}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())

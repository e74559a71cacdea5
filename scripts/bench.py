#!/usr/bin/env python3
"""Record one checkout's benchmark as BENCH_<pr>.json.

    python3 scripts/bench.py --pr N [ROOT]

Runs perfbench/run.py in ROOT (default: the checkout holding this script)
on every workload of ROOT's BENCHMARK.json, once untraced and once traced,
with seed SEED for BENCHMARK.json's run_seconds, then times the Tier-1
test command there, and writes BENCH_N.json in the current directory.
`src_tree` is the git tree id of the src/ that was measured, uncommitted
edits included; `git rev-parse <commit>:src` gives the same id for the
commit that holds that source.  perfbench
is read only through its last two stdout lines (the info line and the
result line), so a checkout older than this script can be measured too.
`env.dont_write_bytecode` records whether PYTHONDONTWRITEBYTECODE is set
for perfbench's children, which inherit this process's environment: if it
is, every cold CLI process compiles openecon from source.
`kernel` holds the Python-level calls ("call" events of sys.setprofile)
of one passing scalar evaluation, `_values_at_rate` of the baseline at
r = 0.4821, and its time in microseconds (the `timeit` minimum), measured
in a child that imports openecon from ROOT/src; it is null where that
child fails.
`src_split_by_file` counts the lines of each of ROOT's src/openecon/*.py
by kind with the tokenize module: a docstring line lies inside a string
token that is a statement on its own (blank lines inside it included), a
code line holds any other token, a comment line only a comment, and a blank
line nothing.  `src_split` is its sum over the files.
Standard library only.  Runs one process at a time: perfbench pins itself
and its children to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from time import perf_counter

HERE_ROOT = Path(__file__).resolve().parents[1]
SEED = 1   # the seed CI runs, so BENCH files and CI logs compare directly
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
KINDS = ("code", "docstring", "comment", "blank")
KERNEL_PROBE = """
import json, sys, timeit
from openecon.model import _values_at_rate
from openecon.reference import baseline_instance
instance, calls = baseline_instance(), []
sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(1))
_values_at_rate(instance, 0.4821)
sys.setprofile(None)
best = min(timeit.repeat(lambda: _values_at_rate(instance, 0.4821),
                         number=10000, repeat=7)) / 10000
print(json.dumps({"python_calls": len(calls), "us": round(best * 1e6, 3)}))
"""


def git(root: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_tree(root: Path) -> str | None:
    """Git tree id of root/src as it is on disk (tracked and new files)."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        for args in (["read-tree", "HEAD"], ["add", "-A", "src"],
                     ["write-tree", "--prefix=src/"]):
            proc = subprocess.run(["git", "-C", str(root), *args], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                return None
        return proc.stdout.strip()


def src_split_by_file(root: Path) -> dict[str, dict[str, int]]:
    """File name -> its code, docstring, comment and blank lines, for each
    root/src/openecon/*.py."""
    split = {}
    starts = (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    ends = (tokenize.NEWLINE, tokenize.ENDMARKER)
    for path in sorted((root / "src" / "openecon").glob("*.py")):
        counts = split[path.name] = dict.fromkeys(KINDS, 0)
        with open(path, "rb") as fh:
            tokens = [t for t in tokenize.tokenize(fh.readline)
                      if t.type not in (tokenize.NL, tokenize.COMMENT)]
        docstring, code = set(), set()
        for i, tok in enumerate(tokens):
            if tok.type in starts or tok.type == tokenize.ENDMARKER:
                continue
            alone = (tok.type == tokenize.STRING and tokens[i - 1].type in starts
                     and tokens[i + 1].type in ends)
            (docstring if alone else code).update(range(tok.start[0], tok.end[0] + 1))
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            kind = ("code" if lineno in code else "docstring" if lineno in docstring
                    else "blank" if not line.strip() else "comment")
            counts[kind] += 1
    return split


def perfbench(root: Path, workload: str, seconds: float, trace: int,
              seed: int = SEED) -> tuple[dict, dict]:
    """(info line, result line) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def src_env() -> dict:
    """This process's environment with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def kernel(root: Path) -> dict | None:
    """Python calls and time of one passing scalar kernel evaluation."""
    proc = subprocess.run([sys.executable, "-c", KERNEL_PROBE], cwd=root,
                          env=src_env(), capture_output=True, text=True)
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def tier1(root: Path) -> dict:
    """Wall time and pass/fail counts of the Tier-1 pytest command."""
    start = perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=src_env(), capture_output=True,
                          text=True)
    wall_s = perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|error|errors|skipped)", summary)}
    return {"wall_s": round(wall_s, 3), "exit_code": proc.returncode,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "summary": summary}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=HERE_ROOT,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    record = {"pr": args.pr, "commit": git(root, "rev-parse", "HEAD"),
              "dirty": bool(git(root, "status", "--porcelain", "src")),
              "src_tree": src_tree(root),
              "seed": SEED, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        _, plain = perfbench(root, workload, seconds, 0)
        info, traced = perfbench(root, workload, seconds, 1)
        # The traced counts come from perfbench's probe, the same for every
        # workload.
        record["env"], record["counts"] = info["env"], info["counts"]
        record["env"]["dont_write_bytecode"] = bool(
            os.environ.get("PYTHONDONTWRITEBYTECODE"))
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": values(plain),
            "per_layer": values(traced),
        }
        print(f"{workload}: {record['workloads'][workload]['end_to_end']}",
              file=sys.stderr)
    record["repo.src_lines"] = traced["metrics"]["repo.src_lines"]["value"]
    by_file = record["src_split_by_file"] = src_split_by_file(root)
    record["src_split"] = {kind: sum(counts[kind] for counts in by_file.values())
                           for kind in KINDS}
    record["kernel"] = kernel(root)
    record["tier1"] = tier1(root)

    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    ok = all(w["correct"] and not w["failed"]
             for w in record["workloads"].values())
    return 0 if ok and record["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

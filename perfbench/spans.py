"""Spans around calls into openecon's modules, for the traced run only.

`Tracer.install` replaces chosen module attributes (for example
`openecon.closure.solve_at_rate`) with wrappers that record a span per call,
so a call from one module into another shows as a child span.  The program
itself is not changed; `uninstall` puts every original back.  Spans stay in
memory as flat float records and are written out once, at the end.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

FIELDS = ("name", "parent", "start", "duration", "self", "size", "error")
WIDTH = len(FIELDS)


def _grid_size(args, kwargs):
    return len(args[1]) if len(args) > 1 else len(kwargs["grid"])


def _schedule_mode(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "full_equilibrium")
    return "full" if mode == "full_equilibrium" else mode


def _payload_points(args, kwargs):
    payload = args[0]
    return len(payload.get("points", ())) if isinstance(payload, dict) else 0


# (module, function, span-name suffix from the arguments, size of the call)
TARGETS = [
    ("model", "solve_at_rate", None, None),
    ("closure", "resolve_rate", lambda a, k: a[1].kind,
     lambda a, k: len(a[1].grid)),
    ("closure", "welfare_stationarity_check", None, None),
    ("scenarios", "run_suite", None, lambda a, k: len(a[1])),
    ("scenarios", "paper_suite", None, None),
    ("schedules", "compute_schedules", _schedule_mode, _grid_size),
    ("configio", "parse_scenarios", None, None),
    ("configio", "read_instance", None, None),
    ("configio", "to_json", None, _payload_points),
    ("configio", "to_csv", None, lambda a, k: len(a[0]) - 1),
    ("acceptance", "run_all", None, None),
    ("acceptance", "sample_feasible_instances", None, lambda a, k: len(a[1])),
    ("cli", "main", lambda a, k: (a[0] or ["none"])[0], None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("d")
        self._stack: list[list] = []   # [record index, start, child time]
        self._patches: list[tuple] = []

    def _id(self, name: str) -> float:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return float(self._ids[name])

    def begin(self, name: str, size: int = 0) -> None:
        index = len(self.records) // WIDTH
        parent = self._stack[-1][0] if self._stack else -1
        self.records.extend((self._id(name), parent, 0.0, 0.0, 0.0, size, -1.0))
        self._stack.append([index, perf_counter(), 0.0])

    def end(self, error: str | None = None) -> None:
        stop = perf_counter()
        index, start, child = self._stack.pop()
        duration = stop - start
        base = index * WIDTH
        self.records[base + 2] = start
        self.records[base + 3] = duration
        self.records[base + 4] = duration - child
        if error is not None:
            self.records[base + 6] = self._id(error)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name, namer=None, sizer=None):
        def traced(*args, **kwargs):
            self.begin(name if namer is None else f"{name}.{namer(args, kwargs)}",
                       sizer(args, kwargs) if sizer else 0)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self.end(error)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever an openecon module binds it."""
        import openecon.acceptance as acceptance
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "openecon" or key.startswith("openecon.")]
        for module, func, namer, sizer in TARGETS:
            original = getattr(sys.modules[f"openecon.{module}"], func)
            wrapped = self.wrap(original, f"{module}.{func}", namer, sizer)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
        # run_all iterates this list, so its entries are wrapped in place.
        originals = list(acceptance.CRITERIA)
        acceptance.CRITERIA[:] = [
            self.wrap(fn, f"acceptance.criterion_{j}")
            for j, fn in enumerate(originals, start=1)]
        self._patches.append((acceptance, "CRITERIA", originals))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            if attr == "CRITERIA":
                holder.CRITERIA[:] = original
            else:
                setattr(holder, attr, original)
        self._patches.clear()

    # -- reading spans back ------------------------------------------------

    def spans(self, start: int = 0, stop: int | None = None):
        """Yield (name, parent, duration, self, size, error) per closed span."""
        r, names = self.records, self.names
        stop = len(r) // WIDTH if stop is None else stop
        for base in range(start * WIDTH, stop * WIDTH, WIDTH):
            error = r[base + 6]
            yield (names[int(r[base])], int(r[base + 1]), r[base + 3],
                   r[base + 4], int(r[base + 5]),
                   None if error < 0 else names[int(error)])

    def __len__(self) -> int:
        return len(self.records) // WIDTH

    def summary(self, start: int = 0, stop: int | None = None) -> dict:
        """Per span name: calls, self time, durations of calls that returned,
        (size, duration) pairs and errors by type.  Key "": time in root spans."""
        out: dict[str, dict] = {"": {"total": 0.0}}
        for name, parent, duration, self_time, size, error in self.spans(start, stop):
            s = out.setdefault(name, {"calls": 0, "self": 0.0, "durations": [],
                                      "sized": [], "errors": Counter()})
            s["calls"] += 1
            s["self"] += self_time
            if error is None:
                s["durations"].append(duration)
                if size:
                    s["sized"].append((size, duration))
            else:
                s["errors"][error] += 1
            if parent < 0:
                out[""]["total"] += duration
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(FIELDS) + "\n")
            r, names = self.records, self.names
            for base in range(0, len(r), WIDTH):
                error = r[base + 6]
                fh.write(f"{names[int(r[base])]},{int(r[base + 1])},"
                         f"{r[base + 2]:.9f},{r[base + 3]:.9f},{r[base + 4]:.9f},"
                         f"{int(r[base + 5])},"
                         f"{'' if error < 0 else names[int(error)]}\n")

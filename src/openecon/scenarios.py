"""Comparative-statics scenario engine.

A Scenario names a set of parameter overrides/perturbations on a baseline
instance plus the rate at which to solve it (or a closure rule that picks
one).  run_suite solves every scenario, assembles the standard result rows,
compares them against reference columns where available, and runs the
cross-scenario directional checks.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import reference
from .closure import ClosureSpec, resolve_rate
from .model import (DomainError, Equilibrium, ModelInstance, annualize_rate,
                    solve_at_rate, with_parameters)

# A reference row fails when row_deviation exceeds this.
REFERENCE_TOLERANCE = 2e-3


@dataclass(frozen=True)
class Scenario:
    """A named variation of a baseline instance, solved at a given rate.

    overrides set parameters to absolute values; perturbations multiply
    them.  Both name ModelInstance fields, and a parameter may appear in at
    most one of the two.  Exactly one of `rate` and `closure` must be set.
    The scenario checks, and keeps, read-only copies of the mappings given.
    """

    name: str
    rate: float | None = None
    overrides: Mapping[str, float] = field(default_factory=dict)
    perturbations: Mapping[str, float] = field(default_factory=dict)
    closure: ClosureSpec | None = None
    reference: Mapping[str, float] | None = None   # ROW_KEYS key -> expected

    def __post_init__(self):
        for name in ("overrides", "perturbations", "reference"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, MappingProxyType(dict(value)))
        for param in (*self.overrides, *self.perturbations):
            if param not in ModelInstance.__dataclass_fields__:
                raise ValueError(f"scenario {self.name!r} has an unknown "
                                 f"parameter {param!r}")
        dup = self.overrides.keys() & self.perturbations.keys()
        if dup:
            raise ValueError(f"parameters in both overrides and perturbations: {dup}")
        if self.rate is None and self.closure is None:
            raise ValueError(f"scenario {self.name!r} needs a rate or a closure")
        if self.rate is not None and self.closure is not None:
            raise ValueError(f"scenario {self.name!r} has both a rate and a closure")
        for key in self.reference or ():
            if key not in reference.ROW_KEYS:
                raise ValueError(f"scenario {self.name!r} has an unknown "
                                 f"reference row {key!r}")


def apply_scenario(base: ModelInstance, s: Scenario) -> ModelInstance:
    """Return a new instance with the scenario's changes; base is untouched.

    Overrides replace a parameter's value, perturbations scale its value in
    `base`; a Scenario names no parameter in both.
    """
    values = s.overrides.copy()               # the read-only view's dict
    for path, factor in s.perturbations.items():
        values[path] = getattr(base, path) * factor
    return with_parameters(base, values)


def report_row(eq: Equilibrium, instance: ModelInstance) -> dict[str, float]:
    """The standard result rows (levels and ratios) for one equilibrium.

    Raises DomainError naming the first row, in reference.ROW_ORDER, that
    has no finite value, such as w0/r at r = 0.
    """
    if eq.r == 0:
        raise DomainError(f"row w0/r is undefined at r={eq.r}")
    w1_pv = eq.w1 / (1.0 + eq.r)           # 0 where it underflows
    rows = {
        "tb0": eq.tb0,
        "r": eq.r,
        "r_year": annualize_rate(eq.r, instance.years_per_period),
        "i0": eq.i0,
        "y1": eq.y1,
        "y0": eq.y0,
        "l0": eq.l0,
        "C0": eq.C0,
        "C1": eq.C1,
        "i0_y0": eq.i0 / eq.y0,
        "c0_y0": eq.C0 / eq.y0,
        "wage_ratio": eq.w0 / w1_pv if w1_pv else math.inf,
        "tb0_y0": eq.tb0 / eq.y0,
        "w0": eq.w0,
        "w0_r": eq.w0 / eq.r,
        "w1": eq.w1,
    }
    for key in reference.ROW_KEYS:
        if not math.isfinite(rows[key]):
            raise DomainError(f"row {reference.ROW_LABELS[key]} is not finite "
                              f"at r={eq.r}")
    return rows


def row_deviation(computed: float, expected: float) -> float:
    """Relative deviation for levels, absolute for values below 1 in magnitude."""
    if abs(expected) < 1.0:
        return abs(computed - expected)
    return abs(computed - expected) / abs(expected)


@dataclass
class ScenarioResult:
    name: str
    rate: float | None             # None where the closure failed
    rows: dict[str, float]
    reference: dict[str, float] | None
    deviations: dict[str, float] = field(default_factory=dict)
    failed_rows: list[str] = field(default_factory=list)
    error: str | None = None

    def __post_init__(self):
        if self.reference is not None:   # its own copy, not its Scenario's
            self.reference = dict(self.reference)

    @property
    def passed(self) -> bool:
        return self.error is None and not self.failed_rows


@dataclass
class SignCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    results: list[ScenarioResult]
    sign_checks: list[SignCheck]

    @property
    def passed(self) -> bool:
        return (all(r.passed for r in self.results)
                and all(c.passed for c in self.sign_checks))


def _run_one(base: ModelInstance, s: Scenario) -> ScenarioResult:
    instance = apply_scenario(base, s)
    rate = s.rate
    if rate is None:
        rate, _ = resolve_rate(instance, s.closure)
    rows = report_row(solve_at_rate(instance, rate), instance)
    deviations = {key: row_deviation(rows[key], expected)
                  for key, expected in (s.reference or {}).items()}
    return ScenarioResult(
        name=s.name, rate=rate, rows=rows, reference=s.reference,
        deviations=deviations,
        failed_rows=[key for key, dev in deviations.items()
                     if dev > REFERENCE_TOLERANCE])


# Each sign check: the parameter a scenario raises, the check's name, and
# the directions it states.  "<row> up", "down" and "unchanged" compare the
# scenario's row with the baseline's, where the deficit row is |tb0|.
_SIGN_CHECKS = [
    ("gamma", "higher gamma: investment unchanged, deficit nearly unchanged",
     ("i0 unchanged", "|dtb0| < 0.5% of y0")),
    ("theta", "higher theta: rate up, wage down, present output and hours up",
     ("r up", "w0 down", "y0 up", "l0 up")),
    ("rho", "higher rho: rate, hours, output up; investment, consumption, deficit down",
     ("r up", "l0 up", "y0 up", "i0 down", "C0 down", "deficit down")),
    ("a1", "higher a1: rate, investment, consumption, wages, deficit up; hours and output down",
     ("r up", "i0 up", "C0 up", "w0 up", "w1 up", "l0 down", "y0 down",
      "deficit up")),
]
_CHANGES = {"up": operator.gt, "down": operator.lt, "unchanged": operator.eq}


def _holds(direction: str, s: dict[str, float], b: dict[str, float]) -> bool:
    """Whether scenario rows `s` move from baseline rows `b` as stated."""
    if direction == "|dtb0| < 0.5% of y0":
        return abs(s["tb0"] - b["tb0"]) < 0.005 * b["y0"]
    key, change = direction.split()
    if key == "deficit":
        return _CHANGES[change](abs(s["tb0"]), abs(b["tb0"]))
    return _CHANGES[change](s[key], b[key])


def _sign_checks(by_param: dict[str | None, ScenarioResult]) -> list[SignCheck]:
    """Directional comparisons vs baseline of each scenario that raises one
    parameter."""
    base = by_param.get(None)
    if base is None:
        return []
    checks: list[SignCheck] = []
    for param, name, directions in _SIGN_CHECKS:
        if param in by_param:
            failures = [d for d in directions
                        if not _holds(d, by_param[param].rows, base.rows)]
            checks.append(SignCheck(
                name=name, passed=not failures,
                detail="all directions hold" if not failures
                else "violated: " + ", ".join(failures)))
    return checks


def run_suite(base: ModelInstance, scenarios: list[Scenario]) -> SuiteReport:
    """Solve all scenarios, compare to references, run directional checks.

    Per-scenario failures are collected, not raised, so one bad scenario
    does not abort the suite.  Results keep the input order.
    """
    results = []
    by_param: dict[str | None, ScenarioResult] = {}
    for s in scenarios:
        try:
            result = _run_one(base, s)
        except ValueError as exc:
            result = ScenarioResult(name=s.name, rate=s.rate, rows={},
                                    reference=s.reference, error=str(exc))
        results.append(result)
        if result.error is None:
            if not s.overrides and not s.perturbations:
                by_param.setdefault(None, result)
            elif not s.overrides and len(s.perturbations) == 1:
                # each sign check states what a higher value does
                ((param, factor),) = s.perturbations.items()
                if factor > 1:
                    by_param.setdefault(param, result)
    return SuiteReport(results=results, sign_checks=_sign_checks(by_param))


def paper_suite() -> list[Scenario]:
    """The embedded five-scenario comparative-statics suite with references."""
    scenarios = []
    for name, param, factor in reference.SUITE_DESIGN:
        scenarios.append(Scenario(
            name=name,
            rate=reference.REFERENCE_TABLE[name]["r"],
            perturbations={} if param is None else {param: factor},
            reference=reference.REFERENCE_TABLE[name],
        ))
    return scenarios

"""Candidate rules for picking the control rate r.

The model never pins down r on its own (one equation of the system is
redundant), so these are selection strategies, each returning a rate plus
diagnostics.  `balanced_trade` and `trade_share_target` find a root of the
present trade balance by ITP (interpolate, truncate, project), one scalar
solve per step and no record; `welfare_sweep` evaluates its grid in one
model.solve_rates call and picks the highest lifetime utility.  Only that
branch loads numpy.  A given rate needs no rule: solve at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (_FIELDS, ModelInstance, _values_at_rate, solve_rates,
                    with_parameters)

DEFAULT_BRACKET = (0.01, 2.0)
MAX_ITERATIONS = 200
TOLERANCE = 1e-10      # root finding's bound on |tb0|/y0 or |tb0/y0 - target|
STEP = 1e-4            # welfare_stationarity_check's finite-difference step
KINDS = ("balanced_trade", "trade_share_target", "welfare_sweep")
_Y0, _L0, _W0, _C0, _TB0, _WELFARE = map(
    _FIELDS.index, ("y0", "l0", "w0", "c0", "tb0", "welfare"))


class BracketError(ValueError):
    """The objective does not change sign over the supplied bracket."""


class ConvergenceError(ValueError):
    """Root finding did not reach TOLERANCE within MAX_ITERATIONS steps."""


@dataclass(frozen=True)
class ClosureSpec:
    """How to choose r.

    kind is one of KINDS; target_share is the desired tb0/y0.  An input is
    unset when None (grid when empty).  __post_init__ states what each kind
    needs, defaults or refuses: target_share, then bracket, then grid.
    bracket and grid are kept as tuples: copies, not the caller's.
    """

    kind: str
    target_share: float | None = None
    bracket: tuple[float, float] | None = None
    grid: tuple[float, ...] = ()
    tolerance = TOLERANCE                # unannotated: constants, not inputs;
    max_iterations = MAX_ITERATIONS      # perfbench's rejection check reads both

    def __post_init__(self):
        for name in ("bracket", "grid"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, tuple(value))
        if self.kind not in KINDS:
            raise ValueError(f"unknown closure kind {self.kind!r}")
        if self.target_share is not None and self.kind != "trade_share_target":
            raise ValueError(f"{self.kind} closure takes no target_share")
        if self.target_share is None and self.kind == "trade_share_target":
            raise ValueError(f"{self.kind} closure needs target_share")
        if self.bracket is not None and self.kind == "welfare_sweep":
            raise ValueError(f"{self.kind} closure takes no bracket")
        if self.bracket is None and self.kind != "welfare_sweep":
            object.__setattr__(self, "bracket", DEFAULT_BRACKET)
        if len(self.grid) and self.kind != "welfare_sweep":
            raise ValueError(f"{self.kind} closure takes no rate grid")
        if not len(self.grid) and self.kind == "welfare_sweep":
            raise ValueError(f"{self.kind} closure needs a rate grid")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("bracket ends must be finite")
            if not lo < hi:
                raise ValueError("bracket must satisfy r_lo < r_hi")
        if self.target_share is not None and not math.isfinite(self.target_share):
            raise ValueError("target_share must be finite")
        if not all(map(math.isfinite, self.grid)):
            raise ValueError("grid rates must be finite")


@dataclass(frozen=True)
class ClosureDiagnostics:
    """How resolve_rate found its rate: `evaluations` solves, `iterations`
    of them root-finding steps, and `residual`, the objective at the rate
    (for welfare_sweep, the lifetime utility there)."""

    kind: str
    iterations: int
    evaluations: int
    residual: float


def _find_root(objective, lo, hi):
    """ITP root finding on a sign change; `objective(r)` returns (value, done).

    Each step takes the regula falsi point, truncates it toward the midpoint
    and projects it into a ball around the midpoint that shrinks by half per
    step (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the bracket is at most
    2^(2-j) times its first width after j steps, as for bisection with two
    steps to spare, and smooth objectives converge superlinearly.

    Returns (root, objective value there, iterations, evaluations): a root
    at a bracket end takes no step and one or two evaluations, one found by
    step j takes j steps and j + 2 evaluations.  Steps are capped at
    MAX_ITERATIONS as it reads at the call.
    """
    f_lo, done = objective(lo)
    if done:
        return lo, f_lo, 0, 1
    f_hi, done = objective(hi)
    if done:
        return hi, f_hi, 0, 2
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"objective has the same sign at both bracket ends "
            f"({f_lo:.6g} at {lo}, {f_hi:.6g} at {hi})")
    # ITP's constants: kappa1 = 0.5 / width, kappa2 = 2 (the square in
    # `shift`) and n0 = 2 (the 2^(1-j) in `radius`).  kappa1 = 0.2 / width
    # or n0 = 1 let regula falsi stall on some convex trade-balance curves:
    # on 200 sampled economies the worst resolve took 37 or 15 evaluations
    # instead of 12.
    width = hi - lo
    kappa1 = 0.5 / width
    for j in range(MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        regula = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        sigma = mid - regula
        shift = kappa1 * (hi - lo) ** 2
        x = regula + math.copysign(shift, sigma) if shift <= abs(sigma) else mid
        radius = max(width * 2.0 ** (1 - j) - 0.5 * (hi - lo), 0.0)
        if abs(x - mid) > radius:
            x = mid - math.copysign(radius, sigma)
        f_x, done = objective(x)
        if done:
            return x, f_x, j + 1, j + 3
        if math.copysign(1.0, f_x) == math.copysign(1.0, f_lo):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    raise ConvergenceError(
        f"no convergence after {MAX_ITERATIONS} root-finding steps")


def resolve_rate(instance: ModelInstance,
                 spec: ClosureSpec) -> tuple[float, ClosureDiagnostics]:
    """Select a rate according to `spec` and report how it was found."""
    if spec.kind == "welfare_sweep":
        # Argmax over the grid, ties break to the lowest rate; the first bad
        # point raises as its scalar solve does, so welfare is finite.  The
        # argmax is a grid end, not an interior optimum: with phi calibrated
        # at the balanced-trade rate r*, utility has a minimum at r* (the
        # economy gains from trade on either side), and under the baseline's
        # phi it falls with r throughout.
        rates = sorted(spec.grid)
        columns, errors = solve_rates(instance, rates)
        if errors:
            _values_at_rate(instance, rates[errors[0][0]])
        welfare = columns["welfare"]
        best = int(welfare.argmax())           # the first of equal maxima
        return rates[best], ClosureDiagnostics(
            spec.kind, 0, len(rates), float(welfare[best]))

    if spec.kind == "balanced_trade":
        def objective(r):
            values = _values_at_rate(instance, r)
            return values[_TB0], abs(values[_TB0]) <= TOLERANCE * values[_Y0]
    else:                                      # trade_share_target
        def objective(r):
            values = _values_at_rate(instance, r)
            f = values[_TB0] / values[_Y0] - spec.target_share
            return f, abs(f) <= TOLERANCE

    r, residual, iterations, evaluations = _find_root(objective, *spec.bracket)
    return r, ClosureDiagnostics(spec.kind, iterations, evaluations, residual)


def calibrated_labor_weight(instance: ModelInstance, r: float) -> float:
    """Labor-disutility weight making present hours optimal at rate r.

    The hours rule fixes only the *ratio* of the two labor optimality
    conditions, so the level of the labor weight is a free normalization;
    this returns the value under which the level condition
    phi * l0^theta = c0^(-gamma) * w0 holds at the equilibrium for r.
    """
    values = _values_at_rate(instance, r)
    return (values[_C0] ** (-instance.gamma) * values[_W0]
            / values[_L0] ** instance.theta)


def welfare_stationarity_check(instance: ModelInstance, r_star: float) -> float:
    """Central finite difference of welfare in r at r_star, with step STEP.

    Uses the labor weight calibrated at r_star (see
    :func:`calibrated_labor_weight`) so the household's hours choice is a
    true optimum and envelope reasoning applies: the derivative is near
    zero when trade balances at r_star and strictly negative when the
    economy borrows in the present period.
    """
    phi = calibrated_labor_weight(instance, r_star)
    calibrated = with_parameters(instance, {"phi": phi})
    return (_values_at_rate(calibrated, r_star + STEP)[_WELFARE]
            - _values_at_rate(calibrated, r_star - STEP)[_WELFARE]) / (2.0 * STEP)

"""Core two-period open-economy model.

Evaluates the full equation system of a two-period economy (present = 0,
future = 1) at a *given* real interest rate r.  The rate is treated as an
input throughout: the system has one redundancy (the intertemporal external
balance follows from the household, firm, and government budget relations),
so any admissible r yields an internally consistent equilibrium.  Rate
selection strategies live in :mod:`openecon.closure`.

All functions are pure; identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:          # annotations only; array code imports numpy itself
    import numpy as np

# Admissibility floor for the gross return delta + r.
MIN_GROSS_RETURN = 1e-9

_OUTPUT_INPUTS = "output requires positive capital, efficiency and hours"


class DomainError(ValueError):
    """An input lies outside the admissible domain of an operation."""


class InfeasibleError(ValueError):
    """The household's present-value income is non-positive at this rate."""


def _require_finite(block, names: tuple[str, ...]) -> None:
    """Raise DomainError for the first of `block`'s fields `names` that is
    NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(block, name)):
            raise DomainError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Parameter blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preferences:
    """Household preference parameters.

    gamma : inverse intertemporal elasticity of substitution (> 0)
    theta : inverse Frisch elasticity of labor supply (> 0)
    rho   : subjective discount rate per period (> 0)
    phi   : labor-disutility weight (> 0); affects welfare levels only,
            never equilibrium quantities
    """

    gamma: float
    theta: float
    rho: float
    phi: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.theta > 0 and self.rho > 0 and self.phi > 0):
            raise DomainError("gamma, theta, rho, phi must all be positive")
        _require_finite(self, ("gamma", "theta", "rho", "phi"))

    @property
    def beta(self) -> float:
        """Discount factor 1/(1+rho), in (0, 1)."""
        return 1.0 / (1.0 + self.rho)


@dataclass(frozen=True)
class Technology:
    """Production-side parameters.

    alpha : output elasticity of capital, in (0, 1)
    delta : depreciation rate per period, in (0, 1]
    a0/a1 : labor efficiency in the present/future period (> 0)
    """

    alpha: float
    delta: float
    a0: float = 1.0
    a1: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError("delta must lie in (0, 1]")
        if not (self.a0 > 0 and self.a1 > 0):
            raise DomainError("labor efficiencies must be positive")
        _require_finite(self, ("a0", "a1"))


@dataclass(frozen=True)
class Demography:
    """Household counts and time endowments per period."""

    n0: float
    n1: float
    l0_max: float
    l1_max: float

    def __post_init__(self):
        if not (self.n0 > 0 and self.n1 > 0 and self.l0_max > 0 and self.l1_max > 0):
            raise DomainError("household counts and time endowments must be positive")
        _require_finite(self, ("n0", "n1", "l0_max", "l1_max"))


@dataclass(frozen=True)
class Fiscal:
    """Government purchases g0, g1 and period-0 total tax revenue t0."""

    g0: float = 0.0
    g1: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        if self.g0 < 0 or self.g1 < 0:
            raise DomainError("government purchases must be non-negative")
        _require_finite(self, ("g0", "g1", "t0"))


@dataclass(frozen=True)
class ModelInstance:
    """A complete parameterization of the two-period economy."""

    preferences: Preferences
    technology: Technology
    demography: Demography
    fiscal: Fiscal
    k0: float
    years_per_period: float = 16.0

    def __post_init__(self):
        if self.k0 <= 0:
            raise DomainError("initial capital k0 must be positive")
        if self.years_per_period <= 0:
            raise DomainError("years_per_period must be positive")
        _require_finite(self, ("k0", "years_per_period"))


@dataclass(frozen=True)
class Equilibrium:
    """The full endogenous vector of the economy at a given rate r.

    Aggregates are upper-case (C0 = n0 * c0); per-household quantities are
    lower-case.  tb0/tb1 are net exports (only the net value is determined).
    """

    r: float
    y0: float
    y1: float
    k0: float
    k1: float
    L0: float
    L1: float
    l0: float
    l1: float
    w0: float
    w1: float
    c0: float
    c1: float
    C0: float
    C1: float
    x0: float
    x1: float
    tax0: float
    tax1: float
    T0: float
    T1: float
    tb0: float
    tb1: float
    i0: float
    q: float
    s0n: float
    s1x: float
    welfare: float
    l0_binding: bool


# ---------------------------------------------------------------------------
# Float and array operations
# ---------------------------------------------------------------------------

# What differs between evaluating on a Python float and on a rate array.
# power: Python's ** (raises OverflowError) or np.float_power (libm's pow, as
# **; numpy's own ** on arrays is off by an ulp on some values).  log:
# math.log, or a ufunc calling it.  clamp: (hours, cap) -> (capped hours,
# whether the cap binds).  reject(failed, error, message, *args): raise, or
# take the failed points out of the array's mask of vouched points.
_Ops = namedtuple("_Ops", "power log clamp reject")


def _clamp(hours: float, cap: float) -> tuple[float, bool]:
    return (cap, True) if hours >= cap else (hours, False)


def _reject(failed, error: type, message: str, *args) -> None:
    if failed:
        raise error(message.format(*args))


_FLOATS = _Ops(operator.pow, math.log, _clamp, _reject)


def _array_ops(shape: tuple[int, ...]) -> tuple[_Ops, np.ndarray]:
    """Ops over rate arrays of `shape`, and their mask of vouched points.
    Callers replay the points that are not vouched or not finite."""
    import numpy as np
    vouched = np.ones(shape, dtype=bool)

    def log(c):
        libm_log = np.frompyfunc(math.log, 1, 1)
        return libm_log(np.where(c > 0, c, np.nan)).astype(float)

    def clamp(hours, cap):
        vouched[~np.isfinite(hours)] = False   # the float ** raises first
        binding = hours >= cap
        return np.where(binding, cap, hours), binding

    def reject(failed, error, message, *args):
        vouched[failed] = False

    return _Ops(np.float_power, log, clamp, reject), vouched


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _check_rate(tech: Technology, r, reject) -> None:
    """check_rate's test on a float or a rate array, through `reject`."""
    reject((r <= -1.0) | (tech.delta + r <= MIN_GROSS_RETURN) | (r != r),
           DomainError, "inadmissible rate r={} (need r > -1 and delta + r > 0)", r)


def check_rate(tech: Technology, r: float) -> None:
    """Raise DomainError unless r > -1 and delta + r > MIN_GROSS_RETURN (not NaN)."""
    _check_rate(tech, r, _reject)


def _capital_demand(tech: Technology, L1: float, r, power):
    return tech.a1 * L1 * power(tech.alpha / (tech.delta + r),
                                1.0 / (1.0 - tech.alpha))


def capital_demand(tech: Technology, L1: float, r: float) -> float:
    """Future capital demanded by the firm: A1 * L1 * (alpha/(delta+r))^(1/(1-alpha)).

    Strictly decreasing in r.  In alpha it is strictly decreasing exactly
    where (1-alpha)/alpha + ln(alpha/(delta+r)) < 0 and rising where that
    is positive: hump-shaped, peaking near alpha = 0.4615 at delta + r = 1.4821.
    """
    check_rate(tech, r)
    if L1 <= 0:
        raise DomainError("aggregate future hours L1 must be positive")
    return _capital_demand(tech, L1, r, operator.pow)


def output(K: float, A: float, L: float, alpha: float) -> float:
    """Cobb-Douglas output K^alpha * (A*L)^(1-alpha)."""
    if K <= 0 or A <= 0 or L <= 0:
        raise DomainError(_OUTPUT_INPUTS)
    return K ** alpha * (A * L) ** (1.0 - alpha)


def wage_mpl(Y: float, L: float, alpha: float) -> float:
    """Competitive hourly wage (1-alpha) * Y / L (marginal product of labor)."""
    if L <= 0:
        raise DomainError("aggregate hours must be positive")
    return (1.0 - alpha) * Y / L


def future_wage(tech: Technology, r: float) -> float:
    """Future wage implied by the firm's capital choice.

    Substituting capital demand into the marginal-product condition makes
    future hours cancel: w1 = (1-alpha) * A1 * (alpha/(delta+r))^(alpha/(1-alpha)).
    """
    check_rate(tech, r)
    a = tech.alpha
    return (1.0 - a) * tech.a1 * (a / (tech.delta + r)) ** (a / (1.0 - a))


def labor_supply_present(instance: ModelInstance, r: float, w1: float) -> tuple[float, bool]:
    """Present hours per household, with a flag for a binding time endowment.

    Solves the fixed point l0 = [beta * w0(l0) * (1+r) / w1]^(1/theta) * l1
    where w0 adjusts through the marginal product as hours change.  The
    closed form has exponent 1/(theta+alpha); the result is clamped to
    l0_max and the flag reports whether the clamp applied.
    """
    if r <= -1.0:
        raise DomainError("rate must exceed -1")
    if w1 <= 0:
        raise DomainError("future wage must be positive")
    hours = _present_hours(instance, r, w1, operator.pow)
    return _clamp(hours, instance.demography.l0_max)


def _present_hours(instance: ModelInstance, r, w1, power):
    """labor_supply_present's closed form, before the clamp."""
    p, t, d = instance.preferences, instance.technology, instance.demography
    a = t.alpha
    return power(p.beta * (1.0 + r) * (1.0 - a) * power(instance.k0, a)
                 * power(t.a0, 1.0 - a) * power(d.n0, -a)
                 * power(d.l1_max, p.theta) / w1, 1.0 / (p.theta + a))


def _euler_factor(prefs: Preferences, r, power):
    return power(prefs.beta * (1.0 + r), 1.0 / prefs.gamma)


def euler_growth(prefs: Preferences, r: float) -> float:
    """Consumption growth factor c1/c0 = [beta*(1+r)]^(1/gamma)."""
    if r <= -1.0:
        raise DomainError("rate must exceed -1")
    return _euler_factor(prefs, r, operator.pow)


def q_factor(prefs: Preferences, r: float) -> float:
    """Consumption-function denominator Q = 1 + [beta*(1+r)]^(1/gamma) / (1+r).

    Always exceeds 1; Q * c0 equals per-household present-value income.
    """
    return 1.0 + euler_growth(prefs, r) / (1.0 + r)


def government_t1(fiscal: Fiscal, r: float) -> float:
    """Future tax revenue balancing the government's present-value budget.

    T1 = (1+r)*G0 + G1 - T0*(1+r), so T0 + T1/(1+r) = G0 + G1/(1+r) exactly.
    """
    if r <= -1.0:
        raise DomainError("rate must exceed -1")
    return (1.0 + r) * fiscal.g0 + fiscal.g1 - fiscal.t0 * (1.0 + r)


def dividends(Y: float, w: float, L: float, I: float, N: float) -> float:
    """Per-household dividend (Y - w*L - I) / N."""
    if N <= 0:
        raise DomainError("household count must be positive")
    return (Y - w * L - I) / N


def annualize_rate(per_period: float, years: float) -> float:
    """Per-year rate equivalent to a per-period rate: (1+r)^(1/years) - 1."""
    if per_period <= -1.0:
        raise DomainError("per-period rate must exceed -1")
    if years <= 0:
        raise DomainError("years must be positive")
    return (1.0 + per_period) ** (1.0 / years) - 1.0


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------

def _period_utility(c, l, prefs: Preferences, ops: _Ops):
    ops.reject(c <= 0, DomainError, "consumption must be positive")
    uc = (ops.log(c) if prefs.gamma == 1.0
          else ops.power(c, 1.0 - prefs.gamma) / (1.0 - prefs.gamma))
    return uc - prefs.phi * ops.power(l, 1.0 + prefs.theta) / (1.0 + prefs.theta)


def period_utility(c: float, l: float, prefs: Preferences) -> float:
    """Separable period utility: power function of c minus power function of l.

    At gamma = 1 the consumption term is log(c).  Away from 1 the term is
    c^(1-gamma)/(1-gamma), which differs from the normalized CRRA form by
    the constant 1/(1-gamma); utility *differences* are therefore continuous
    in gamma at 1, while levels diverge with the constant.
    """
    return _period_utility(c, l, prefs, _FLOATS)


def lifetime_utility(c0: float, l0: float, c1: float, l1: float,
                     prefs: Preferences) -> float:
    """U = u(c0, l0) + beta * u(c1, l1)."""
    return period_utility(c0, l0, prefs) + prefs.beta * period_utility(c1, l1, prefs)


# ---------------------------------------------------------------------------
# Full solve
# ---------------------------------------------------------------------------

def _system(instance: ModelInstance, r, ops: _Ops) -> Equilibrium:
    """The complete equation system at r, a float or an array of rates.

    The future labor market is exogenous (l1 = l1_max), the firm picks
    future capital at the given r, the household splits its present-value
    income across the two periods, and the trade balances absorb the rest.
    Each check runs before the operation it guards, in the float path's
    order.  Over an array, fields that do not vary with r stay floats.
    """
    p, t, d, f = (instance.preferences, instance.technology,
                  instance.demography, instance.fiscal)
    power, reject = ops.power, ops.reject
    a = t.alpha
    _check_rate(t, r, reject)
    R = 1.0 + r

    l1 = d.l1_max
    L1 = d.n1 * l1
    w1 = (1.0 - a) * t.a1 * power(a / (t.delta + r), a / (1.0 - a))
    reject(L1 <= 0, DomainError, "aggregate future hours L1 must be positive")
    k1 = _capital_demand(t, L1, r, power)
    reject(k1 <= 0, DomainError, _OUTPUT_INPUTS)
    y1 = power(k1, a) * power(t.a1 * L1, 1.0 - a)

    reject(w1 <= 0, DomainError, "future wage must be positive")
    l0, binding = ops.clamp(_present_hours(instance, r, w1, power), d.l0_max)
    L0 = d.n0 * l0
    reject(L0 <= 0, DomainError, _OUTPUT_INPUTS)
    y0 = power(instance.k0, a) * power(t.a0 * L0, 1.0 - a)
    w0 = (1.0 - a) * y0 / L0

    i0 = k1 - (1.0 - t.delta) * instance.k0
    x0 = (y0 - w0 * L0 - i0) / d.n0
    x1 = (y1 - w1 * L1) / d.n1
    T1 = R * f.g0 + f.g1 - f.t0 * R
    tax0 = f.t0 / d.n0
    tax1 = T1 / d.n1

    income = w0 * l0 + w1 * l1 / R + x0 + x1 / R - tax0 - tax1 / R
    reject(income <= 0, InfeasibleError,
           "present-value income per household is {} at r={}", income, r)
    growth = _euler_factor(p, r, power)
    q = 1.0 + growth / R
    c0 = income / q
    c1 = c0 * growth
    C0 = d.n0 * c0
    C1 = d.n1 * c1
    tb1 = y1 - C1 - f.g1
    welfare = (_period_utility(c0, l0, p, ops)
               + p.beta * _period_utility(c1, l1, p, ops))

    return Equilibrium(   # in field order: binding 29 keywords is slower
        r, y0, y1, instance.k0, k1, L0, L1, l0, l1, w0, w1, c0, c1, C0, C1,
        x0, x1, tax0, tax1, f.t0, T1, y0 - C0 - i0 - f.g0, tb1, i0, q,
        y0 - C0 - f.g0, tb1 / R, welfare, binding)


def solve_at_rate(instance: ModelInstance, r: float) -> Equilibrium:
    """Evaluate the complete equation system at the rate r.

    Raises DomainError for an inadmissible rate or a value out of floating
    range, InfeasibleError for non-positive present-value income.  r is
    converted to a Python float first: its ** raises on overflow, where a
    numpy scalar's returns inf.
    """
    r = float(r)
    try:
        return _system(instance, r, _FLOATS)
    except OverflowError:
        # Python's float ** raises where the result exceeds the double range.
        raise DomainError(f"numerical overflow at r={r}") from None


def solve_rates(instance: ModelInstance, rates) -> tuple[dict[str, np.ndarray],
                                                         list[tuple[int, str]]]:
    """solve_at_rate over a 1-d sequence of rates, as (columns, errors).

    columns maps each Equilibrium field to an array over the rates, with
    values bit-identical to solve_at_rate(instance, rates[j]).  errors lists
    (j, message) for each rate where that call raises DomainError or
    InfeasibleError; those points are NaN (False in l0_binding).  Points the
    array pass cannot vouch for are replayed through solve_at_rate.
    """
    import numpy as np
    r = np.array(rates, dtype=float)
    ops, vouched = _array_ops(r.shape)
    with np.errstate(all="ignore"):
        eq = _system(instance, r, ops)
        columns = {k: v if isinstance(v, np.ndarray) else np.full_like(r, v)
                   for k, v in vars(eq).items()}
        # Overflow: the float path's ** raises where float_power returns inf.
        vouched &= np.isfinite(sum(columns.values()))

        flagged = np.flatnonzero(~vouched)
        for column in columns.values():
            column[flagged] = False if column.dtype == bool else np.nan
        errors = []
        for j in flagged:
            try:
                eq = solve_at_rate(instance, rates[j])
            except (DomainError, InfeasibleError) as exc:
                errors.append((int(j), str(exc)))
                continue
            for name, column in columns.items():
                column[j] = getattr(eq, name)
    return columns, errors

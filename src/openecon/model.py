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

# Admissibility floor for the gross return delta + r, and the rule's message.
MIN_GROSS_RETURN = 1e-9
_RATE_RULE = "inadmissible rate r={} (need r > -1 and delta + r > 0)"

_OUTPUT_INPUTS = "output requires positive capital, efficiency and hours"
_PRESENT_OUTPUT = "present output must be positive; it is {} at r={}"
_L1_RULE = "aggregate future hours L1 must be positive"
_OVERFLOW = "numerical overflow at r={}"
_CONSUMPTION = "consumption must be positive"


class DomainError(ValueError):
    """An input lies outside the admissible domain of an operation."""


class InfeasibleError(ValueError):
    """The household's present-value income is non-positive at this rate."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

_PREFERENCES = "gamma, theta, rho, phi must all be positive"
_EFFICIENCIES = "labor efficiencies must be positive"
_ENDOWMENTS = "household counts and time endowments must be positive"
_PURCHASES = "government purchases must be non-negative"

# The 17 parameters in instance-file order, not field order: (file spelling,
# ModelInstance field, rule, message), where rule(x) is True if it rejects x.
# `not x > 0` rejects NaN; `<` and `<=` pass it on to the finiteness check.
PARAMETERS = (
    ("alpha", "alpha", lambda x: not 0.0 < x < 1.0, "alpha must lie in (0, 1)"),
    ("gamma", "gamma", lambda x: not x > 0, _PREFERENCES),
    ("delta", "delta", lambda x: not 0.0 < x <= 1.0, "delta must lie in (0, 1]"),
    ("theta", "theta", lambda x: not x > 0, _PREFERENCES),
    ("rho", "rho", lambda x: not x > 0, _PREFERENCES),
    ("phi", "phi", lambda x: not x > 0, _PREFERENCES),
    ("A0", "a0", lambda x: not x > 0, _EFFICIENCIES),
    ("A1", "a1", lambda x: not x > 0, _EFFICIENCIES),
    ("N0", "n0", lambda x: not x > 0, _ENDOWMENTS),
    ("N1", "n1", lambda x: not x > 0, _ENDOWMENTS),
    ("K0", "k0", lambda x: x <= 0, "initial capital k0 must be positive"),
    ("tax0", "t0", None, None),
    ("G0", "g0", lambda x: x < 0, _PURCHASES),
    ("G1", "g1", lambda x: x < 0, _PURCHASES),
    ("l0_max", "l0_max", lambda x: not x > 0, _ENDOWMENTS),
    ("l1_max", "l1_max", lambda x: not x > 0, _ENDOWMENTS),
    ("years_per_period", "years_per_period", lambda x: x <= 0,
     "years_per_period must be positive"),
)

_CANONICAL = {name.lower(): field for spelling, field, _, _ in PARAMETERS
              for name in (spelling, field)}


def canonical_parameter(name: str) -> str:
    """Normalize a parameter spelling (e.g. 'A1', 'tax0') to its field.

    Spellings and fields match case-insensitively, ignoring surrounding space.
    """
    try:
        return _CANONICAL[name.strip().lower()]
    except KeyError:
        raise KeyError(f"unknown parameter {name!r}") from None


@dataclass(frozen=True, kw_only=True, slots=True)
class ModelInstance:
    """A complete parameterization of the two-period economy.

    gamma  : inverse intertemporal elasticity of substitution (> 0)
    theta  : inverse Frisch elasticity of labor supply (> 0)
    rho    : subjective discount rate per period (> 0)
    phi    : labor-disutility weight (> 0); never affects equilibrium
             quantities, but sets the shape of welfare in r.  Calibrated at
             the balanced-trade rate r* (closure.calibrated_labor_weight),
             lifetime utility has a *minimum* at r*, so a welfare argmax
             over a rate grid lands on one of the grid's ends.
    alpha  : output elasticity of capital, in (0, 1)
    delta  : depreciation rate per period, in (0, 1]
    a0/a1  : labor efficiency in the present/future period (> 0)
    n0/n1, l0_max/l1_max : household counts and time endowments (> 0)
    g0/g1, t0 : government purchases (>= 0), period-0 total tax revenue
    k0, years_per_period : initial capital, years per period (> 0)

    The range rules of PARAMETERS run in field order, then one check that
    every field is finite; the first failure raises DomainError.  Slotted,
    so an instance has no __dict__: its fields read at slot speed.
    """

    gamma: float
    theta: float
    rho: float
    phi: float = 1.0
    alpha: float
    delta: float
    a0: float = 1.0
    a1: float = 1.0
    n0: float
    n1: float
    l0_max: float
    l1_max: float
    g0: float = 0.0
    g1: float = 0.0
    t0: float = 0.0
    k0: float
    years_per_period: float = 16.0

    def __post_init__(self):
        _check(tuple(zip(_PARAMETER_NAMES, _parameter_values(self))))

    @property
    def beta(self) -> float:
        """Discount factor 1/(1+rho), in (0, 1)."""
        return 1.0 / (1.0 + self.rho)


_PARAMETER_NAMES = tuple(ModelInstance.__dataclass_fields__)
_parameter_values = operator.attrgetter(*_PARAMETER_NAMES)
_RULES = {field: (rule, message) for _, field, rule, message in PARAMETERS}
_INDEX = {field: i for i, field in enumerate(_PARAMETER_NAMES)}
# Each slot's descriptor setter, which bypasses the frozen __setattr__.
_SETTERS = tuple(ModelInstance.__dict__[field].__set__
                 for field in _PARAMETER_NAMES)


def _check(pairs) -> None:
    """Raise the DomainError of the first (field, value) pair, in the order
    given, that a range rule of PARAMETERS rejects, else of the first value
    that is not finite.  Every rule reads one field."""
    total = 0.0
    for field, value in pairs:
        rule, message = _RULES[field]
        if rule is not None and rule(value):
            raise DomainError(message)
        total += value
    # A NaN or inf makes the sum one; a sum that overflows costs the loop.
    if not math.isfinite(total):
        for field, value in pairs:
            if not math.isfinite(value):
                raise DomainError(f"{field} must be finite")


def check_parameter(field: str, value: float) -> None:
    """Raise the DomainError that `value` in `field`, with valid values
    elsewhere, gives a new instance.  Builds no instance."""
    _check(((field, value),))


def _field_order(item: tuple[str, float]) -> int:
    """Sort key of a (field, value) item: the field's place in field order.
    An unknown field raises TypeError, as the generated __init__ does."""
    try:
        return _INDEX[item[0]]
    except KeyError:
        raise TypeError(f"ModelInstance has no field {item[0]!r}") from None


def with_parameters(instance: ModelInstance,
                    values: dict[str, float]) -> ModelInstance:
    """`instance` with each field named in `values` set, checked as any new
    instance is; `instance` itself if `values` is empty.

    Only the fields in `values` are checked, in field order: the rest have
    passed in `instance`, so the first error is the one a full build raises.
    The copy is filled through the slot setters, with no __init__ call.
    """
    if not values:
        return instance
    changed = sorted(values.items(), key=_field_order)
    _check(changed)
    fields = list(_parameter_values(instance))
    for field, value in changed:
        fields[_INDEX[field]] = value
    copy = object.__new__(ModelInstance)
    for setter, value in zip(_SETTERS, fields):
        setter(copy, value)
    return copy


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


_FIELDS = tuple(Equilibrium.__dataclass_fields__)


def _equilibrium(values: tuple) -> Equilibrium:
    """An Equilibrium of `values` in field order, built without the frozen
    __init__, which sets the 29 fields one object.__setattr__ at a time."""
    eq = object.__new__(Equilibrium)
    eq.__dict__.update(zip(_FIELDS, values))
    return eq


# ---------------------------------------------------------------------------
# Float and array operations
# ---------------------------------------------------------------------------

# What differs between evaluating on a Python float and on a rate array.
# power: Python's ** (raises OverflowError) or np.float_power (libm's pow, as
# **; numpy's own ** on arrays is off by an ulp on some values).  log:
# math.log, or a ufunc calling it.  clamp: (hours, cap) -> (capped hours,
# whether the cap binds).  reject(failed, error, message, *args): raise, or
# take the failed points out of the array's mask of vouched points.  The
# kernel skips the call where `failed` is the plain False: a passing float.
_Ops = namedtuple("_Ops", "power log clamp reject")


def _clamp(hours: float, cap: float) -> tuple[float, bool]:
    return (cap, True) if hours >= cap else (hours, False)


def _reject(failed, error: type, message: str, *args) -> None:
    if failed:
        raise error(message.format(*args))


_FLOATS = _Ops(operator.pow, math.log, _clamp, _reject)


def _array_ops(shape: tuple[int, ...]) -> tuple[_Ops, np.ndarray]:
    """Ops over rate arrays of `shape`, and their mask of vouched points."""
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

def _check_rate(instance: ModelInstance, r, reject):
    """check_rate's test on a float or a rate array, through `reject`;
    returns the points it rejects (False for a passing float)."""
    bad = (r <= -1.0) | (instance.delta + r <= MIN_GROSS_RETURN) | (r != r)
    if bad is not False:
        reject(bad, DomainError, _RATE_RULE, r)
    return bad


def check_rate(instance: ModelInstance, r: float) -> None:
    """Raise DomainError unless r > -1 and delta + r > MIN_GROSS_RETURN (not NaN)."""
    _check_rate(instance, r, _reject)


def _capital_demand(instance: ModelInstance, L1: float, r, power):
    a = instance.alpha
    return instance.a1 * L1 * power(a / (instance.delta + r), 1.0 / (1.0 - a))


def capital_demand(instance: ModelInstance, L1: float, r: float) -> float:
    """Future capital demanded by the firm: A1 * L1 * (alpha/(delta+r))^(1/(1-alpha)).

    Strictly decreasing in r.  In alpha it is strictly decreasing exactly
    where (1-alpha)/alpha + ln(alpha/(delta+r)) < 0 and rising where that
    is positive: hump-shaped, peaking near alpha = 0.4615 at delta + r = 1.4821.
    """
    check_rate(instance, r)
    if L1 <= 0:
        raise DomainError(_L1_RULE)
    return _capital_demand(instance, L1, r, operator.pow)


def _euler_factor(instance: ModelInstance, r, power):
    """Consumption growth c1/c0 = [beta*(1+r)]^(1/gamma)."""
    return power(instance.beta * (1.0 + r), 1.0 / instance.gamma)


def annualize_rate(per_period: float, years: float) -> float:
    """Per-year rate equivalent to a per-period rate: (1+r)^(1/years) - 1."""
    if per_period <= -1.0:
        raise DomainError("per-period rate must exceed -1")
    if years <= 0:
        raise DomainError("years must be positive")
    try:
        growth = (1.0 + per_period) ** (1.0 / years)
    except OverflowError:      # Python's float ** raises; 1/years may be inf
        growth = math.inf
    if growth == math.inf:
        raise DomainError(f"per-year rate overflows at r={per_period} "
                          f"over {years} years")
    return growth - 1.0


# ---------------------------------------------------------------------------
# Full solve
# ---------------------------------------------------------------------------

def _system(instance: ModelInstance, r, ops: _Ops) -> tuple:
    """The complete equation system at r, a float or an array of rates.

    The future labor market is exogenous (l1 = l1_max), the firm picks
    future capital at the given r, the household splits its present-value
    income across the two periods, and the trade balances absorb the rest.
    Each check runs before the operation it guards, in the float path's
    order.  Over an array, fields that do not vary with r stay floats.
    Returns the 29 values in Equilibrium field order; only solve_at_rate
    builds the record, through _equilibrium.  Flat, to save Python calls:
    capital demand and the Euler factor restate their helpers inline.
    """
    power, log, reject, beta = ops.power, ops.log, ops.reject, instance.beta
    a, a1, k0, delta = instance.alpha, instance.a1, instance.k0, instance.delta
    gamma, theta, phi = instance.gamma, instance.theta, instance.phi
    n0, n1, g0, t0 = instance.n0, instance.n1, instance.g0, instance.t0
    _check_rate(instance, r, reject)
    R = 1.0 + r
    k0_a = power(k0, a)

    l1 = instance.l1_max
    L1 = n1 * l1
    w1 = (1.0 - a) * a1 * power(a / (delta + r), a / (1.0 - a))
    if (bad := L1 <= 0) is not False:
        reject(bad, DomainError, _L1_RULE)
    k1 = a1 * L1 * power(a / (delta + r), 1.0 / (1.0 - a))
    if (bad := k1 <= 0) is not False:
        reject(bad, DomainError, _OUTPUT_INPUTS)
    y1 = power(k1, a) * power(a1 * L1, 1.0 - a)

    if (bad := w1 <= 0) is not False:
        reject(bad, DomainError, "future wage must be positive")
    # Present hours before the clamp: the closed form, with exponent
    # 1/(theta+alpha), of l0 = [beta * w0(l0) * (1+r) / w1]^(1/theta) * l1,
    # where w0 moves with hours through the marginal product.
    hours = power(beta * R * (1.0 - a) * k0_a * power(instance.a0, 1.0 - a)
                  * power(n0, -a) * power(l1, theta) / w1, 1.0 / (theta + a))
    l0, binding = ops.clamp(hours, instance.l0_max)
    L0 = n0 * l0
    if (bad := L0 <= 0) is not False:
        reject(bad, DomainError, _OUTPUT_INPUTS)
    y0 = k0_a * power(instance.a0 * L0, 1.0 - a)
    if (bad := y0 <= 0) is not False:      # a0 * L0 or the product underflows
        reject(bad, DomainError, _PRESENT_OUTPUT, y0, r)
    w0 = (1.0 - a) * y0 / L0

    i0 = k1 - (1.0 - delta) * k0
    x0 = (y0 - w0 * L0 - i0) / n0
    x1 = (y1 - w1 * L1) / n1
    T1 = R * g0 + instance.g1 - t0 * R
    tax0 = t0 / n0
    tax1 = T1 / n1

    income = w0 * l0 + w1 * l1 / R + x0 + x1 / R - tax0 - tax1 / R
    if (bad := income <= 0) is not False:
        reject(bad, InfeasibleError,
               "present-value income per household is {} at r={}", income, r)
    growth = power(beta * R, 1.0 / gamma)     # the Euler factor c1/c0
    q = 1.0 + growth / R
    c0 = income / q
    c1 = c0 * growth
    C0 = n0 * c0
    C1 = n1 * c1
    tb0 = y0 - C0 - i0 - g0
    tb1 = y1 - C1 - instance.g1
    s0n = y0 - C0 - g0
    s1x = tb1 / R
    # welfare = u(c0, l0) + beta * u(c1, l1), u(c, l) = c^(1-gamma)/(1-gamma)
    # - phi * l^(1+theta)/(1+theta), with log(c) at gamma = 1: the power term
    # differs from the normalized CRRA form by 1/(1-gamma), so utility
    # *differences* are continuous in gamma at 1, levels diverge with it.
    if (bad := c0 <= 0) is not False:
        reject(bad, DomainError, _CONSUMPTION)
    u0 = ((log(c0) if gamma == 1.0 else power(c0, 1.0 - gamma) / (1.0 - gamma))
          - phi * power(l0, 1.0 + theta) / (1.0 + theta))
    if (bad := c1 <= 0) is not False:
        reject(bad, DomainError, _CONSUMPTION)
    u1 = ((log(c1) if gamma == 1.0 else power(c1, 1.0 - gamma) / (1.0 - gamma))
          - phi * power(l1, 1.0 + theta) / (1.0 + theta))
    welfare = u0 + beta * u1
    # The one overflow rule: a product such as a0 * L0 overflows to inf
    # without raising.  Every earlier field reaches c0 through income, and
    # 0 * x is NaN when x is NaN or inf and +-0 otherwise, so total is not 0
    # exactly when some field is not finite, however large the fields are.
    total = (0.0 * c0 + 0.0 * c1 + 0.0 * C1 + 0.0 * tb0 + 0.0 * s0n
             + 0.0 * s1x + 0.0 * welfare)
    if (bad := total != 0) is not False:
        reject(bad, DomainError, _OVERFLOW, r)

    return (r, y0, y1, k0, k1, L0, L1, l0, l1, w0, w1, c0, c1, C0,
            C1, x0, x1, tax0, tax1, t0, T1, tb0, tb1, i0, q, s0n, s1x,
            welfare, binding)


def _values_at_rate(instance: ModelInstance, r: float) -> tuple:
    """solve_at_rate's values, without the record.  r becomes a Python float
    first: its ** raises on overflow, where a numpy scalar's returns inf."""
    r = float(r)
    try:
        return _system(instance, r, _FLOATS)
    except OverflowError:      # where Python's float ** exceeds the double range
        raise DomainError(_OVERFLOW.format(r)) from None


def solve_at_rate(instance: ModelInstance, r: float) -> Equilibrium:
    """Evaluate the complete equation system at the rate r.

    Raises DomainError for an inadmissible rate or a value out of floating
    range, InfeasibleError for non-positive present-value income.
    """
    return _equilibrium(_values_at_rate(instance, r))


def solve_rates(instance: ModelInstance, rates) -> tuple[dict[str, np.ndarray],
                                                         list[tuple[int, str]]]:
    """solve_at_rate over a 1-d sequence of rates, as (columns, errors).

    columns maps each Equilibrium field to an array over the rates, with
    values bit-identical to solve_at_rate(instance, rates[j]).  errors lists
    (j, message) for each rate where that call raises DomainError or
    InfeasibleError; those points are NaN (False in l0_binding).  Rates the
    rate check rejects take its message here; other points the array pass
    cannot vouch for are replayed through the float path.
    """
    import numpy as np
    r = np.array(rates, dtype=float)
    ops, vouched = _array_ops(r.shape)
    with np.errstate(all="ignore"):
        inadmissible = _check_rate(instance, r, ops.reject)
        values = _system(instance, r, ops)
        columns = {k: v if isinstance(v, np.ndarray) else np.full_like(r, v)
                   for k, v in zip(_FIELDS, values)}
        # before the fill below: columns["r"] is r itself
        bad = np.flatnonzero(inadmissible)
        errors = list(zip(bad.tolist(), map(_RATE_RULE.format, r[bad].tolist())))
        flagged = np.flatnonzero(~vouched)
        for column in columns.values():
            column[flagged] = False if column.dtype == bool else np.nan
        for j in np.flatnonzero(~vouched & ~inadmissible).tolist():
            try:
                values = _values_at_rate(instance, rates[j])
            except (DomainError, InfeasibleError) as exc:
                errors.append((j, str(exc)))
                continue
            for column, value in zip(columns.values(), values):
                column[j] = value
    return columns, sorted(errors)

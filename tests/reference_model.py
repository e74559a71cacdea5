"""The model's equations written out one by one, as the tests' oracle.

`openecon.model._system` is the only statement of the equations in the
package.  This module states them a second time, with plain `**` and
without the kernel's helpers, so the references built from it share no
code with the kernel: a change to any equation in the package shows as a
mismatch against these functions.  Each raises where the kernel raises,
with the same message.
"""

import math

from openecon import DomainError, ModelInstance

# Admissibility floor for the gross return delta + r.
MIN_GROSS_RETURN = 1e-9


def check_rate(instance: ModelInstance, r: float) -> None:
    """Raise DomainError unless r > -1 and delta + r > MIN_GROSS_RETURN (not NaN)."""
    if r <= -1.0 or instance.delta + r <= MIN_GROSS_RETURN or r != r:
        raise DomainError(
            f"inadmissible rate r={r} (need r > -1 and delta + r > 0)")


def capital_demand(instance: ModelInstance, L1: float, r: float) -> float:
    """Future capital demanded by the firm: A1 * L1 * (alpha/(delta+r))^(1/(1-alpha))."""
    check_rate(instance, r)
    if L1 <= 0:
        raise DomainError("aggregate future hours L1 must be positive")
    a = instance.alpha
    return instance.a1 * L1 * (a / (instance.delta + r)) ** (1.0 / (1.0 - a))


def output(K: float, A: float, L: float, alpha: float) -> float:
    """Cobb-Douglas output K^alpha * (A*L)^(1-alpha)."""
    if K <= 0 or A <= 0 or L <= 0:
        raise DomainError("output requires positive capital, efficiency and hours")
    return K ** alpha * (A * L) ** (1.0 - alpha)


def wage_mpl(Y: float, L: float, alpha: float) -> float:
    """Competitive hourly wage (1-alpha) * Y / L (marginal product of labor)."""
    if L <= 0:
        raise DomainError("aggregate hours must be positive")
    return (1.0 - alpha) * Y / L


def future_wage(instance: ModelInstance, r: float) -> float:
    """Future wage implied by the firm's capital choice.

    Substituting capital demand into the marginal-product condition makes
    future hours cancel: w1 = (1-alpha) * A1 * (alpha/(delta+r))^(alpha/(1-alpha)).
    """
    check_rate(instance, r)
    a = instance.alpha
    return (1.0 - a) * instance.a1 * (a / (instance.delta + r)) ** (a / (1.0 - a))


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
    a, theta, l0_max = instance.alpha, instance.theta, instance.l0_max
    hours = (instance.beta * (1.0 + r) * (1.0 - a) * instance.k0 ** a
             * instance.a0 ** (1.0 - a) * instance.n0 ** -a
             * instance.l1_max ** theta / w1) ** (1.0 / (theta + a))
    return (l0_max, True) if hours >= l0_max else (hours, False)


def euler_growth(instance: ModelInstance, r: float) -> float:
    """Consumption growth factor c1/c0 = [beta*(1+r)]^(1/gamma)."""
    if r <= -1.0:
        raise DomainError("rate must exceed -1")
    return (instance.beta * (1.0 + r)) ** (1.0 / instance.gamma)


def q_factor(instance: ModelInstance, r: float) -> float:
    """Consumption-function denominator Q = 1 + [beta*(1+r)]^(1/gamma) / (1+r).

    Always exceeds 1; Q * c0 equals per-household present-value income.
    """
    return 1.0 + euler_growth(instance, r) / (1.0 + r)


def government_t1(instance: ModelInstance, r: float) -> float:
    """Future tax revenue balancing the government's present-value budget.

    T1 = (1+r)*G0 + G1 - T0*(1+r), so T0 + T1/(1+r) = G0 + G1/(1+r) exactly.
    """
    if r <= -1.0:
        raise DomainError("rate must exceed -1")
    return (1.0 + r) * instance.g0 + instance.g1 - instance.t0 * (1.0 + r)


def dividends(Y: float, w: float, L: float, I: float, N: float) -> float:
    """Per-household dividend (Y - w*L - I) / N."""
    if N <= 0:
        raise DomainError("household count must be positive")
    return (Y - w * L - I) / N


def period_utility(c: float, l: float, instance: ModelInstance) -> float:
    """Separable period utility: power function of c minus power function of l.

    At gamma = 1 the consumption term is log(c), otherwise c^(1-gamma)/(1-gamma).
    """
    if c <= 0:
        raise DomainError("consumption must be positive")
    gamma, theta = instance.gamma, instance.theta
    uc = math.log(c) if gamma == 1.0 else c ** (1.0 - gamma) / (1.0 - gamma)
    return uc - instance.phi * l ** (1.0 + theta) / (1.0 + theta)


def lifetime_utility(c0: float, l0: float, c1: float, l1: float,
                     instance: ModelInstance) -> float:
    """U = u(c0, l0) + beta * u(c1, l1)."""
    return (period_utility(c0, l0, instance)
            + instance.beta * period_utility(c1, l1, instance))

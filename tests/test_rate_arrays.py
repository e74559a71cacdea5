"""The rate-array paths and the equation kernel against the code they replaced.

Each reference below is the code a new path replaced, kept verbatim apart
from its name and the schedule loops' y0 column: the full-equilibrium and partial schedule loops, the welfare
sweep, the recursive JSON walk, the cell-by-cell CSV loop, and solve_at_rate
as it was written before the float and array paths shared one statement of
the equation system.  The new paths must reproduce them exactly, bit for bit
and message for message.  The model references call the equations of
reference_model, which share no code with the kernel.
"""

import copy
import json
import math
import pickle
import struct
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openecon import (ClosureSpec, DomainError, Equilibrium, InfeasibleError,
                      ModelInstance, baseline_instance, compute_schedules,
                      resolve_rate, solve_at_rate)
from openecon.acceptance import sample_instance
from openecon.configio import Records, csv_number, json_number, to_csv, to_json
from openecon.model import solve_rates, with_parameters
from reference_model import (capital_demand, check_rate, dividends,
                             euler_growth, future_wage, government_t1,
                             labor_supply_present, lifetime_utility, output,
                             q_factor, wage_mpl)

FIELDS = list(Equilibrium.__dataclass_fields__)


# ---------------------------------------------------------------------------
# References: the replaced per-point code
# ---------------------------------------------------------------------------

def reference_solve_at_rate(instance: ModelInstance, r: float) -> Equilibrium:
    """Evaluate the complete equation system at the rate r.

    The future labor market is exogenous (l1 = l1_max), the firm picks
    future capital at the given r, the household splits its present-value
    income across the two periods, and the trade balances absorb the rest.
    Raises DomainError for an inadmissible rate, present output that
    underflows to 0 or a value out of floating range, InfeasibleError for non-positive present-value income.  r is
    converted to a Python float first: its ** raises on overflow, where a
    numpy scalar's returns inf.
    """
    r = float(r)
    try:
        check_rate(instance, r)
        R = 1.0 + r

        l1 = instance.l1_max
        L1 = instance.n1 * l1
        w1 = future_wage(instance, r)
        k1 = capital_demand(instance, L1, r)
        y1 = output(k1, instance.a1, L1, instance.alpha)

        l0, binding = labor_supply_present(instance, r, w1)
        L0 = instance.n0 * l0
        y0 = output(instance.k0, instance.a0, L0, instance.alpha)
        if y0 <= 0:
            raise DomainError(f"present output must be positive; it is {y0} "
                              f"at r={r}")
        w0 = wage_mpl(y0, L0, instance.alpha)

        i0 = k1 - (1.0 - instance.delta) * instance.k0
        x0 = dividends(y0, w0, L0, i0, instance.n0)
        x1 = dividends(y1, w1, L1, 0.0, instance.n1)

        T1 = government_t1(instance, r)
        tax0 = instance.t0 / instance.n0
        tax1 = T1 / instance.n1

        income = w0 * l0 + w1 * l1 / R + x0 + x1 / R - tax0 - tax1 / R
        if income <= 0:
            raise InfeasibleError(
                f"present-value income per household is {income} at r={r}")

        q = q_factor(instance, r)
        c0 = income / q
        c1 = c0 * euler_growth(instance, r)
        C0 = instance.n0 * c0
        C1 = instance.n1 * c1

        tb0 = y0 - C0 - i0 - instance.g0
        tb1 = y1 - C1 - instance.g1
        s0n = y0 - C0 - instance.g0
        s1x = tb1 / R
        U = lifetime_utility(c0, l0, c1, l1, instance)

        return Equilibrium(
            r=r, y0=y0, y1=y1, k0=instance.k0, k1=k1, L0=L0, L1=L1,
            l0=l0, l1=l1, w0=w0, w1=w1, c0=c0, c1=c1, C0=C0, C1=C1,
            x0=x0, x1=x1, tax0=tax0, tax1=tax1, T0=instance.t0, T1=T1,
            tb0=tb0, tb1=tb1, i0=i0, q=q, s0n=s0n, s1x=s1x,
            welfare=U, l0_binding=binding,
        )
    except OverflowError:
        # Python's float ** raises where the result exceeds the double range.
        raise DomainError(f"numerical overflow at r={r}") from None


def reference_full(instance, grid):
    n = grid.size
    i0, s0n, s1x = (np.full(n, np.nan) for _ in range(3))
    errors = []
    for j, r in enumerate(grid):
        try:
            eq = solve_at_rate(instance, r)
        except (DomainError, InfeasibleError) as exc:
            errors.append((j, str(exc)))
            continue
        i0[j], s0n[j], s1x[j] = eq.i0, eq.s0n, eq.s1x
    return i0, s0n, s1x, errors


def reference_partial(instance, grid, r_ref):
    n = grid.size
    i0, s0n, s1x = (np.full(n, np.nan) for _ in range(3))
    errors = []
    ref = solve_at_rate(instance, r_ref)
    inc0 = ref.w0 * ref.l0 + ref.x0 - ref.tax0
    inc1 = ref.w1 * ref.l1 + ref.x1 - ref.tax1
    for j, r in enumerate(grid):
        try:
            check_rate(instance, r)
            k1 = capital_demand(instance, ref.L1, r)
            c0 = (inc0 + inc1 / (1.0 + r)) / q_factor(instance, r)
        except (DomainError, InfeasibleError) as exc:
            errors.append((j, str(exc)))
            continue
        i0[j] = k1 - (1.0 - instance.delta) * instance.k0
        s0n[j] = ref.y0 - instance.n0 * c0 - instance.g0
        s1x[j] = ref.tb1 / (1.0 + r)
    return i0, s0n, s1x, errors


def reference_sweep(instance, grid):
    best_r = None
    best_u = -math.inf
    for r in sorted(grid):
        u = solve_at_rate(instance, r).welfare
        if u > best_u:
            best_r, best_u = r, u
    return best_r, best_u


def reference_to_json(payload):
    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, float):
            return json_number(node)
        return node

    return json.dumps(walk(payload), indent=2, sort_keys=True) + "\n"


def reference_to_csv(rows: list[list]) -> str:
    """Render rows of strings/numbers as simple comma-separated text."""
    rendered = []
    for row in rows:
        rendered.append(",".join(
            cell if isinstance(cell, str) else csv_number(cell) for cell in row))
    return "\n".join(rendered) + "\n"


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, InfeasibleError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@st.composite
def economies(draw):
    """A sampled economy; sometimes gamma = 1 or heavy spending."""
    instance = sample_instance(np.random.default_rng(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        instance = replace(instance, gamma=1.0)
    if draw(st.booleans()):   # income turns negative over part of the grid
        instance = replace(instance, g0=draw(st.floats(1e3, 1e5)),
                           g1=draw(st.floats(1e3, 1e5)))
    return instance


@st.composite
def rate_grids(draw, delta, low=-1.5):
    """Sorted rates from `low` to 3, by default through r <= -1 and
    delta + r <= 0."""
    edges = [r for r in (-1.0, -delta, -delta + 1e-9, -delta + 2e-9,
                         -1.0 + 1e-12) if r >= low]
    rates = draw(st.lists(st.floats(low, 3.0) | st.sampled_from(edges or [low]),
                          min_size=1, max_size=40))
    return np.array(sorted(rates))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def assert_matches_scalar_solve(instance, rates):
    columns, errors = solve_rates(instance, rates)
    want_errors = []
    for j in range(len(rates)):
        try:
            eq = solve_at_rate(instance, rates[j])
        except (DomainError, InfeasibleError) as exc:
            want_errors.append((j, str(exc)))
            assert all(np.isnan(columns[name][j])
                       for name in FIELDS if name != "l0_binding")
            assert not columns["l0_binding"][j]
            continue
        for name in FIELDS:
            assert columns[name][j] == getattr(eq, name), (name, rates[j])
    assert errors == want_errors


@given(data=st.data(), instance=economies(), as_list=st.booleans())
@settings(max_examples=200, deadline=None)
def test_solve_rates_matches_scalar_solve(data, instance, as_list):
    grid = data.draw(rate_grids(instance.delta))
    assert_matches_scalar_solve(instance, grid.tolist() if as_list else grid)


@given(data=st.data(), instance=economies())
@settings(max_examples=100, deadline=None)
def test_schedules_match_per_point_loops(data, instance):
    grid = np.unique(data.draw(rate_grids(instance.delta)))
    curve = compute_schedules(instance, grid)
    *want, want_errors = reference_full(instance, grid)
    for got, expected in zip((curve.i0, curve.s0n, curve.s1x), want, strict=True):
        assert np.array_equal(got, expected, equal_nan=True)
    assert curve.errors == want_errors

    r_ref = data.draw(st.sampled_from(grid.tolist()))
    ref = outcome(solve_at_rate, instance, r_ref)
    if isinstance(ref, tuple):   # the reference rate itself does not solve
        with pytest.raises(ref[0]):
            compute_schedules(instance, grid, mode="partial", r_ref=r_ref)
        return
    curve = compute_schedules(instance, grid, mode="partial", r_ref=r_ref)
    *want, want_errors = reference_partial(instance, grid, r_ref)
    for got, expected in zip((curve.i0, curve.s0n, curve.s1x), want, strict=True):
        assert np.array_equal(got, expected, equal_nan=True)
    assert curve.errors == want_errors


@given(data=st.data(), instance=economies(), as_array=st.booleans())
@settings(max_examples=150, deadline=None)
def test_welfare_sweep_matches_loop(data, instance, as_array):
    low = data.draw(st.sampled_from([-1.5, 0.01]))
    grid = data.draw(rate_grids(instance.delta, low))
    if data.draw(st.booleans()):   # equal welfare at repeated rates
        grid = np.concatenate([grid, grid[::2]])
    grid = tuple(grid) if as_array else tuple(grid.tolist())
    want = outcome(reference_sweep, instance, grid)
    got = outcome(resolve_rate, instance, ClosureSpec("welfare_sweep", grid=grid))
    if isinstance(want[0], type):
        assert got == want
        return
    best_r, best_u = want
    rate, diag = got
    assert rate == best_r
    assert diag.residual == best_u
    assert (diag.evaluations, diag.iterations) == (len(grid), 0)


def bits(value):
    """A field's exact value: floats by their bytes, so -0.0 and NaN count."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def assert_kernel_matches_reference(instance, rates):
    """solve_at_rate and solve_rates both give the replaced code's fields
    and errors, apart from one deliberate change: where the replaced code
    let a product overflow to inf and returned a field that is NaN or
    infinite, both report a numerical overflow."""
    columns, errors = solve_rates(instance, rates)
    want_errors = []
    for j, r in enumerate(rates):
        want = outcome(reference_solve_at_rate, instance, r)
        if isinstance(want, Equilibrium) and not all(
                math.isfinite(getattr(want, name)) for name in FIELDS):
            want = DomainError, f"numerical overflow at r={float(r)}"
        got = outcome(solve_at_rate, instance, r)
        if isinstance(want, tuple):
            assert got == want, r
            want_errors.append((j, want[1]))
            continue
        assert isinstance(got, Equilibrium), (r, got)
        for name in FIELDS:
            assert (bits(getattr(got, name)) == bits(getattr(want, name))
                    == bits(columns[name][j].item())), (name, r)
    assert errors == want_errors


def edge_economies(b):
    """Overflow (of the firm's powers, of hours before the clamp, of the
    hours term in utility), log utility, L1 underflow, a tiny initial
    capital, present output that underflows to 0 (a0 * L0 = 1e-349),
    present or future output so large that income is NaN, present hours
    so many that aggregate consumption is inf while c0 is finite (which the replaced code let through and solve_at_rate rejects),
    and fields that are all finite while tb0 + s0n leaves the double range
    (at r = 2.0 both are -1.108e308; the overflow rule must accept them)."""
    return {
        "steep": replace(b, alpha=0.99, delta=0.1),
        "log_small_hours": replace(b, k0=1.0, gamma=1.0, theta=1.0,
                                   l0_max=1.0, l1_max=1.0),
        "L1_underflow": replace(b, n1=1e-200, l1_max=1e-200),
        "tiny_k0": replace(b, k0=1e-300),
        "zero_output": replace(b, k0=1e-250, a0=1e-250, l0_max=1e-100),
        "hours_overflow": replace(b, theta=0.05, alpha=0.2, a0=1e100),
        "utility_overflow": replace(b, theta=1.0, l1_max=1e200),
        "nan_income": replace(b, a0=1e300, n0=1e10),
        "nan_future_income": replace(b, a1=1e300, n1=1e10),
        "inf_aggregate_consumption": replace(b, n0=1e306),
        "finite_sum_overflow": replace(b, a0=4.685e-43, a1=3.946e37,
                                       n0=2.736e267),
    }


EDGE_ECONOMIES = edge_economies(baseline_instance())
EDGE_RATES = np.concatenate([
    np.linspace(-0.11, -0.05, 61), np.linspace(0.01, 2.0, 41),
    [-1.5, -1.0, -0.3, 1e300, math.inf, -math.inf, math.nan]])


@given(data=st.data(), instance=economies())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_replaced_solve_at_rate(data, instance):
    grid = data.draw(rate_grids(instance.delta))
    assert_kernel_matches_reference(instance, grid)
    assert_kernel_matches_reference(instance, grid.tolist())


@pytest.mark.parametrize("name", list(EDGE_ECONOMIES))
def test_kernel_matches_replaced_solve_at_rate_on_edges(name):
    instance = EDGE_ECONOMIES[name]
    assert_kernel_matches_reference(instance, EDGE_RATES)
    assert_kernel_matches_reference(instance, EDGE_RATES.tolist())


EXTREME_PARAMETERS = ["gamma", "theta", "rho", "phi", "a0", "a1", "n0", "n1",
                      "l0_max", "l1_max", "k0", "g0", "g1"]


@st.composite
def extreme_economies(draw):
    """The baseline with one to four positive parameters drawn log-uniform
    over 1e-300 to 1e300."""
    names = draw(st.lists(st.sampled_from(EXTREME_PARAMETERS), min_size=1,
                          max_size=4, unique=True))
    return with_parameters(baseline_instance(), {
        name: 10.0 ** draw(st.floats(-300.0, 300.0)) for name in names})


@given(data=st.data(), instance=extreme_economies())
@settings(max_examples=300, deadline=None)
def test_extreme_economies_solve_finite_or_raise(data, instance):
    """No successful solve has a NaN or infinite field, and solve_rates
    agrees with solve_at_rate point for point."""
    rates = data.draw(rate_grids(instance.delta, low=-0.5))
    for r in rates:
        eq = outcome(solve_at_rate, instance, r)
        if isinstance(eq, Equilibrium):
            assert all(math.isfinite(getattr(eq, name)) for name in FIELDS), r
    assert_matches_scalar_solve(instance, rates)


def test_overflowing_economy_matches_scalar_solve(baseline):
    """alpha = 0.99, delta = 0.1: powers overflow just above r = -0.1."""
    steep = replace(baseline, alpha=0.99, delta=0.1)
    grid = np.linspace(-0.11, -0.05, 61)
    assert_matches_scalar_solve(steep, grid)
    assert_matches_scalar_solve(steep, grid.tolist())
    with pytest.raises(DomainError, match="overflow"):
        solve_at_rate(steep, -0.0999)


def hashed(eq):
    """hash(eq), or the message of the TypeError an array field raises."""
    try:
        return hash(eq)
    except TypeError as exc:
        return str(exc)


def assert_same_record(eq, twin):
    """eq, built by the kernel, behaves as twin, built by the dataclass's
    generated __init__: equality, hash, repr, asdict, replace, field order,
    copies, pickling, and frozen fields."""
    assert type(eq) is Equilibrium
    assert list(vars(eq)) == list(vars(twin)) == FIELDS
    assert eq == twin and twin == eq
    assert hashed(eq) == hashed(twin)
    assert repr(eq) == repr(twin)
    assert repr(asdict(eq)) == repr(asdict(twin))
    assert replace(eq, r=0.5) == replace(twin, r=0.5)
    for other in (copy.copy(eq), pickle.loads(pickle.dumps(eq))):
        assert type(other) is Equilibrium
        assert list(vars(other)) == FIELDS
        assert other == twin
    with pytest.raises(FrozenInstanceError):
        eq.r = 0.5
    with pytest.raises(FrozenInstanceError):
        del eq.welfare
    assert eq == twin


@pytest.mark.parametrize("r", [0.4821, 0.01, 2.0])
def test_solve_at_rate_record_is_a_dataclass_record(baseline, r):
    assert_same_record(solve_at_rate(baseline, r),
                       reference_solve_at_rate(baseline, r))


def test_log_utility_matches_scalar_solve(baseline):
    """gamma = 1 with small hours, so that log(c) shows in welfare: numpy's
    vectorized log differs from math.log by an ulp at some of these points."""
    small = replace(baseline, k0=1.0, gamma=1.0, theta=1.0, l0_max=1.0,
                    l1_max=1.0)
    assert_matches_scalar_solve(small, np.linspace(0.01, 2.0, 401))


floats = st.floats() | st.sampled_from(
    [-0.0, 1e16, 1e-5, 1e15, 123456789012345.67, 0.1, 1 / 3, math.inf])
keys = st.text(max_size=5)
leaves = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=5)


@st.composite
def float_tables(draw):
    """Lists of flat float dicts, usually with one shared key set."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: floats for k in names}),
                         min_size=1, max_size=6))
    if draw(st.booleans()):   # one row breaks the pattern
        j = draw(st.integers(0, len(rows) - 1))
        rows[j] = draw(st.dictionaries(keys, leaves, max_size=3))
    return rows


payloads = st.recursive(
    leaves | float_tables(),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(keys, kids, max_size=4)
                  | st.dictionaries(st.integers(), kids, max_size=3)),
    max_leaves=25)


def not_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


def assert_matches_strict_walk(payload):
    """to_json gives the replaced walk's text, or raises ValueError where
    that text holds json's NaN or Infinity, which RFC 8259 does not have."""
    text = reference_to_json(payload)
    try:
        json.loads(text, parse_constant=not_json)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            to_json(payload)
    else:
        assert to_json(payload) == text


@given(payload=payloads)
@settings(max_examples=400, deadline=None)
def test_to_json_matches_walk_and_dumps(payload):
    assert_matches_strict_walk(payload)


def test_to_json_schedule_points():
    """Row dicts with NaN or -inf raise; with null in their place they give
    the walk's bytes."""
    for s1x, low in ((math.nan, -math.inf), (None, -3.0)):
        points = [{"r": r, "I0": 1e16 * r, "S0N": -0.0, "S1X": s1x,
                   "residual": 1e-5 / (r or 1.0)} for r in (0.0, 0.5, 1e15, low)]
        payload = {"mode": "full_equilibrium", "points": points, "é": [points, {}]}
        assert_matches_strict_walk(payload)


# Where json's repr and the %-text of 15 digits part ways: subnormals, signed
# zeros, integral values, exponent 15, the smallest double, non-finite values
# and the largest doubles, which round to inf.
column_floats = (st.floats() | st.floats(-3e-308, 3e-308)
                 | st.floats(1e15, 1e16, exclude_max=True)
                 | st.integers(-2**60, 2**60).map(float)
                 | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e15, -1e16,
                                    2.2250738585072014e-308, 1e-300, 1e-30,
                                    1.7976931348623157e308,
                                    -1.7976931348623151e308]))
column_keys = st.text(alphabet="%\"\\é✓ab", max_size=4) | st.text(max_size=4)


def ulps_from(x, steps):
    """The double `steps` representable values above x (below if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Values at the edges of to_json's screen of the values it may write with
# "%.15g" alone: a few ulps from integers, from +-1e15, from +-1e-290 and
# from the subnormals; on either side of its 1e-14 distance from an
# integer; signed zeros and non-finite values; and plain values to mix with
# them in a row.
edge_anchors = (st.integers(-10**6, 10**6).map(float)
                | st.integers(-2**60, 2**60).map(float)
                | st.sampled_from([1e15, -1e15, 1e-290, -1e-290, 1e16,
                                   999999999999999.5, 0.5, 1e-308,
                                   2.2250738585072014e-308, 5e-324]))
edge_floats = (st.builds(ulps_from, edge_anchors, st.integers(-4, 4))
               | st.builds(lambda m, e, k: m * 10.0**e * (1 + k * 1e-15),
                           st.integers(1, 99), st.integers(0, 13),
                           st.integers(-12, 12))
               | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
               | st.floats(-1e6, 1e6))


@pytest.mark.parametrize("floats", [column_floats, edge_floats],
                         ids=["column_floats", "edge_floats"])
@given(data=st.data(), names=st.lists(column_keys, max_size=5, unique=True),
       size=st.integers(0, 8), arrays=st.booleans())
@settings(max_examples=200, deadline=None)
def test_records_match_row_dicts(floats, data, names, size, arrays):
    columns = {k: data.draw(st.lists(floats, min_size=size, max_size=size))
               for k in names}
    rows = [{k: v if math.isfinite(json_number(v)) else None
             for k, v in zip(columns, values)}
            for values in zip(*columns.values())]
    records = Records({k: np.array(v) if arrays else v
                       for k, v in columns.items()})
    payload = {"mode": "partial", "points": records}
    assert to_json(payload) == reference_to_json({"mode": "partial",
                                                  "points": rows})
    assert to_json(records) == reference_to_json(rows)


@given(data=st.data(), names=st.lists(column_keys, max_size=5, unique=True),
       size=st.integers(0, 8), arrays=st.booleans())
@settings(max_examples=200, deadline=None)
def test_records_csv_matches_cell_loop(data, names, size, arrays):
    columns = {k: data.draw(st.lists(column_floats | edge_floats,
                                     min_size=size, max_size=size))
               for k in names}
    records = Records({k: np.array(v) if arrays else v
                       for k, v in columns.items()})
    rows = [list(values) for values in zip(*columns.values())]
    assert to_csv(records) == reference_to_csv([names, *rows])


def test_records_columns_must_match():
    with pytest.raises(ValueError, match="one length"):
        Records({"a": [1.0], "b": []})


@st.composite
def csv_tables(draw):
    """A header and rows of floats; sometimes a bool, an int or a string
    in the body, or a row of another width."""
    width = draw(st.integers(1, 5))
    header = draw(st.lists(st.text(max_size=3), min_size=width, max_size=width))
    body = draw(st.lists(st.lists(column_floats | st.just(math.nan),
                                  min_size=width, max_size=width).map(tuple),
                         max_size=6))
    if body and draw(st.booleans()):
        j = draw(st.integers(0, len(body) - 1))
        row = list(body[j])
        if draw(st.booleans()):
            row[draw(st.integers(0, width - 1))] = draw(
                st.booleans() | st.integers() | st.text(max_size=3))
        else:
            row.append(1.0)
        body[j] = row
    return [header, *body]


@given(rows=csv_tables())
@settings(max_examples=200, deadline=None)
def test_to_csv_matches_cell_loop(rows):
    assert to_csv(rows) == reference_to_csv(rows)

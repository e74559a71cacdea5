"""The rate-array paths against the per-point code they replaced.

Each reference below is the loop the array path replaced, kept verbatim
apart from its name: the full-equilibrium and partial schedule loops, the
welfare sweep and the recursive JSON walk.  The array paths must reproduce
them exactly, bit for bit and message for message.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openecon import (ClosureSpec, DomainError, Equilibrium, InfeasibleError,
                      capital_demand, compute_schedules, resolve_rate,
                      solve_at_rate)
from openecon.acceptance import sample_instance
from openecon.configio import json_number, to_json
from openecon.model import check_rate, q_factor, solve_rates

FIELDS = list(Equilibrium.__dataclass_fields__)


# ---------------------------------------------------------------------------
# References: the replaced per-point code
# ---------------------------------------------------------------------------

def reference_full(instance, grid):
    n = grid.size
    i0, s0n, s1x, y0 = (np.full(n, np.nan) for _ in range(4))
    errors = []
    for j, r in enumerate(grid):
        try:
            eq = solve_at_rate(instance, r)
        except (DomainError, InfeasibleError) as exc:
            errors.append((j, str(exc)))
            continue
        i0[j], s0n[j], s1x[j], y0[j] = eq.i0, eq.s0n, eq.s1x, eq.y0
    return i0, s0n, s1x, y0, errors


def reference_partial(instance, grid, r_ref):
    n = grid.size
    i0, s0n, s1x, y0 = (np.full(n, np.nan) for _ in range(4))
    errors = []
    ref = solve_at_rate(instance, r_ref)
    d, t, f, p = (instance.demography, instance.technology,
                  instance.fiscal, instance.preferences)
    inc0 = ref.w0 * ref.l0 + ref.x0 - ref.tax0
    inc1 = ref.w1 * ref.l1 + ref.x1 - ref.tax1
    for j, r in enumerate(grid):
        try:
            check_rate(t, r)
            k1 = capital_demand(t, ref.L1, r)
            c0 = (inc0 + inc1 / (1.0 + r)) / q_factor(p, r)
        except (DomainError, InfeasibleError) as exc:
            errors.append((j, str(exc)))
            continue
        i0[j] = k1 - (1.0 - t.delta) * instance.k0
        s0n[j] = ref.y0 - d.n0 * c0 - f.g0
        s1x[j] = ref.tb1 / (1.0 + r)
        y0[j] = ref.y0
    return i0, s0n, s1x, y0, errors


def reference_sweep(instance, grid):
    best_r = None
    best_u = -math.inf
    history = []
    for r in sorted(grid):
        u = solve_at_rate(instance, r).welfare
        history.append((r, u))
        if u > best_u:
            best_r, best_u = r, u
    return best_r, best_u, history


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
        instance = replace(instance, preferences=replace(
            instance.preferences, gamma=1.0))
    if draw(st.booleans()):   # income turns negative over part of the grid
        instance = replace(instance, fiscal=replace(
            instance.fiscal, g0=draw(st.floats(1e3, 1e5)),
            g1=draw(st.floats(1e3, 1e5))))
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
    grid = data.draw(rate_grids(instance.technology.delta))
    assert_matches_scalar_solve(instance, grid.tolist() if as_list else grid)


@given(data=st.data(), instance=economies())
@settings(max_examples=100, deadline=None)
def test_schedules_match_per_point_loops(data, instance):
    grid = np.unique(data.draw(rate_grids(instance.technology.delta)))
    curve = compute_schedules(instance, grid)
    *want, want_errors = reference_full(instance, grid)
    for got, expected in zip((curve.i0, curve.s0n, curve.s1x, curve.y0), want):
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
    for got, expected in zip((curve.i0, curve.s0n, curve.s1x, curve.y0), want):
        assert np.array_equal(got, expected, equal_nan=True)
    assert curve.errors == want_errors


@given(data=st.data(), instance=economies(), as_array=st.booleans())
@settings(max_examples=150, deadline=None)
def test_welfare_sweep_matches_loop(data, instance, as_array):
    low = data.draw(st.sampled_from([-1.5, 0.01]))
    grid = data.draw(rate_grids(instance.technology.delta, low))
    if data.draw(st.booleans()):   # equal welfare at repeated rates
        grid = np.concatenate([grid, grid[::2]])
    grid = tuple(grid) if as_array else tuple(grid.tolist())
    want = outcome(reference_sweep, instance, grid)
    got = outcome(resolve_rate, instance, ClosureSpec("welfare_sweep", grid=grid))
    if isinstance(want[0], type):
        assert got == want
        return
    best_r, best_u, history = want
    rate, diag = got
    assert rate == best_r
    assert diag.residual == best_u
    assert diag.history == history
    assert diag.evaluations == len(grid)


def test_overflowing_economy_matches_scalar_solve(baseline):
    """alpha = 0.99, delta = 0.1: powers overflow just above r = -0.1."""
    steep = replace(baseline, technology=replace(
        baseline.technology, alpha=0.99, delta=0.1))
    grid = np.linspace(-0.11, -0.05, 61)
    assert_matches_scalar_solve(steep, grid)
    assert_matches_scalar_solve(steep, grid.tolist())
    with pytest.raises(DomainError, match="overflow"):
        solve_at_rate(steep, -0.0999)


def test_log_utility_matches_scalar_solve(baseline):
    """gamma = 1 with small hours, so that log(c) shows in welfare: numpy's
    vectorized log differs from math.log by an ulp at some of these points."""
    small = replace(baseline, k0=1.0,
                    preferences=replace(baseline.preferences, gamma=1.0,
                                        theta=1.0),
                    demography=replace(baseline.demography, l0_max=1.0,
                                       l1_max=1.0))
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


@given(payload=payloads)
@settings(max_examples=400, deadline=None)
def test_to_json_matches_walk_and_dumps(payload):
    assert to_json(payload) == reference_to_json(payload)


def test_to_json_schedule_points():
    points = [{"r": r, "I0": 1e16 * r, "S0N": -0.0, "S1X": math.nan,
               "residual": 1e-5 / (r or 1.0)} for r in (0.0, 0.5, 1e15, -math.inf)]
    payload = {"mode": "full_equilibrium", "points": points, "é": [points, {}]}
    assert to_json(payload) == reference_to_json(payload)

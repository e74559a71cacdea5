"""Saving and investment schedules on a rate grid.

Two modes:

* full_equilibrium — every grid point is a complete solve, so national plus
  external saving equals investment *identically* (the residual is pure
  roundoff).  The "intersection" of the curves is the whole curve; that is
  the formal content of treating the rate as an input.

* partial — reproduces the textbook crossing geometry.  The household's
  period income components and the future trade balance are frozen at a
  reference rate r_ref while present consumption responds to r through
  discounting and the intertemporal price, and investment responds through
  the firm's capital demand.  The curves coincide with the full solution at
  r_ref and cross there.

Each mode has two paths, with bit-identical values and error messages.
The array path evaluates the whole grid at once: full mode through
model.solve_rates, partial mode through the model's rate check, capital
demand and Euler factor with np.float_power.  The scalar path runs per
point on Python floats: full mode through model._values_at_rate, partial
mode through the same expressions with Python's float **.  _use_arrays
picks the path, for the grid too: the scalar path runs only while numpy is
not loaded and the grid is no larger than ARRAY_BREAK_EVEN points.

numpy is imported inside each function, on the array path only: the
package imports this module, and the scalar commands (solve, table,
root-finding sweeps) and small-grid schedules must not pay for loading it.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from typing import TYPE_CHECKING

from .model import (_FIELDS, _OVERFLOW, _RATE_RULE, DomainError,
                    InfeasibleError, ModelInstance, _capital_demand,
                    _check_rate, _euler_factor, _linspace, _values_at_rate,
                    solve_at_rate, solve_rates)

if TYPE_CHECKING:          # annotations only
    import numpy as np

MODES = ("full_equilibrium", "partial")

# Where loading numpy starts to pay, fast host speed.  A cold `import numpy`
# costs about 78 ms (126 against 46 ms for `python -c pass`), and the array
# kernel saves about 3.4 us per full-mode point (0.22 against 3.7 us), which
# alone would put the break-even near 23k points.  But the scalar path also
# writes slower: in paired cold `schedules --grid=0.05,1.2,N` runs (11 pairs
# each), the scalar path won by 27 ms at N = 10k and lost by 38 ms at 20k
# with JSON (won by 33, lost by 8 ms with CSV), so the two cross near 14k
# points with JSON and 18k with CSV.
ARRAY_BREAK_EVEN = 14_000
_NAN3 = (math.nan,) * 3
_NOT_A_GRID = "grid must be a non-empty 1-d array of rates"
_I0, _S0N, _S1X = map(_FIELDS.index, ("i0", "s0n", "s1x"))


def _use_arrays(grid) -> bool:
    """Whether `grid` (any sized sequence of rates) takes the array path:
    numpy is loaded already (a blocked numpy, None in sys.modules, counts
    as absent), or the grid has more than ARRAY_BREAK_EVEN points."""
    return sys.modules.get("numpy") is not None or len(grid) > ARRAY_BREAK_EVEN


def rate_grid(start: float, stop: float, points: int):
    """numpy.linspace(start, stop, points), points >= 2: the array itself on
    the array path, else a tuple of the same floats."""
    if _use_arrays(range(points)):
        import numpy as np
        return np.linspace(start, stop, points)
    return _linspace(start, stop, points)


def default_grid(r_ref: float):
    """41 rates from r_ref - 0.2 to r_ref + 0.2, floored at 0.01, from
    rate_grid; ValueError where they do not rise (r_ref <= -0.19, or so
    large they round together)."""
    grid = rate_grid(max(0.01, r_ref - 0.2), r_ref + 0.2, 41)
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError(f"no default grid at r_ref={r_ref:.6g}: its 41 rates "
                         "from max(0.01, r_ref - 0.2) to r_ref + 0.2 do not rise")
    return grid


def compute_schedules(instance: ModelInstance, grid, mode: str = "full_equilibrium",
                      r_ref: float | None = None
                      ) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """The schedules on `grid`, as (columns, errors) like model.solve_rates.

    columns maps i0, s0n, s1x and residual (s0n + s1x - i0) to columns over
    the grid: numpy float arrays on the array path, so whenever numpy is
    loaded, else memoryviews of array("d"), with len, indexing and tolist()
    (np.asarray views one without a copy).  errors lists (j, message) for
    each point where the model is inadmissible or a value overflows; those
    points are NaN.  Partial mode requires r_ref inside the grid span.
    """
    if _use_arrays(grid):
        import numpy as np
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(_NOT_A_GRID)
        rises = np.all(np.diff(grid) > 0)          # a NaN fails it too
    else:
        grid = _floats(grid)
        rises = all(map(operator.lt, grid, grid[1:]))
    if not rises:
        raise ValueError("grid must be strictly increasing")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "partial":
        if r_ref is None:
            raise ValueError("partial mode needs a reference rate r_ref")
        if not grid[0] <= r_ref <= grid[-1]:
            raise ValueError("r_ref must lie within the grid span")
    if isinstance(grid, tuple):
        return _per_point(instance, grid, mode, r_ref)

    if mode == "full_equilibrium":
        columns, errors = solve_rates(instance, grid)
        i0, s0n, s1x = (columns[k] for k in ("i0", "s0n", "s1x"))
    else:
        ref = solve_at_rate(instance, r_ref)
        inc0 = ref.w0 * ref.l0 + ref.x0 - ref.tax0
        inc1 = ref.w1 * ref.l1 + ref.x1 - ref.tax1
        with np.errstate(all="ignore"):
            inadmissible = _check_rate(instance, grid, lambda *_: None)
            R = 1.0 + grid
            k1 = _capital_demand(instance, ref.L1, grid, np.float_power)
            growth = _euler_factor(instance, grid, np.float_power)
            c0 = (inc0 + inc1 / R) / (1.0 + growth / R)
            i0 = k1 - (1.0 - instance.delta) * instance.k0
            s0n = ref.y0 - instance.n0 * c0 - instance.g0
            s1x = ref.tb1 / R
        ok = ~inadmissible & np.isfinite(i0) & np.isfinite(s0n) & np.isfinite(s1x)
        errors = [(int(j), (_RATE_RULE if inadmissible[j] else
                            _OVERFLOW).format(grid[j]))
                  for j in np.flatnonzero(~ok)]
        i0, s0n, s1x = (np.where(ok, v, np.nan) for v in (i0, s0n, s1x))

    with np.errstate(all="ignore"):
        residual = s0n + s1x - i0
    return {"i0": i0, "s0n": s0n, "s1x": s1x, "residual": residual}, errors


def _floats(grid) -> tuple[float, ...]:
    """The rates of a flat, non-empty `grid`, as Python floats."""
    try:
        rates = tuple(map(float, grid))
    except TypeError:          # a nested sequence
        rates = ()
    if not rates:
        raise ValueError(_NOT_A_GRID)
    return rates


def _power(x: float, y: float) -> float:
    """x ** y, or inf where it overflows, as np.float_power gives: the
    partial-mode bases are positive."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _per_point(instance: ModelInstance, rates: tuple[float, ...], mode: str,
               r_ref: float | None) -> tuple[dict[str, memoryview],
                                            list[tuple[int, str]]]:
    """compute_schedules' scalar path, on checked inputs: the array path's
    values and messages, one rate at a time."""
    points, errors = [], []
    if mode == "full_equilibrium":
        for j, r in enumerate(rates):
            try:
                values = _values_at_rate(instance, r)
            except (DomainError, InfeasibleError) as exc:
                errors.append((j, str(exc)))
                points.append(_NAN3)
            else:
                points.append((values[_I0], values[_S0N], values[_S1X]))
    else:
        ref = solve_at_rate(instance, r_ref)
        inc0 = ref.w0 * ref.l0 + ref.x0 - ref.tax0
        inc1 = ref.w1 * ref.l1 + ref.x1 - ref.tax1
        for j, r in enumerate(rates):
            if _check_rate(instance, r, lambda *_: None):
                errors.append((j, _RATE_RULE.format(r)))
                points.append(_NAN3)
                continue
            R = 1.0 + r
            k1 = _capital_demand(instance, ref.L1, r, _power)
            growth = _euler_factor(instance, r, _power)
            c0 = (inc0 + inc1 / R) / (1.0 + growth / R)
            point = (k1 - (1.0 - instance.delta) * instance.k0,
                     ref.y0 - instance.n0 * c0 - instance.g0, ref.tb1 / R)
            if all(map(math.isfinite, point)):
                points.append(point)
            else:
                errors.append((j, _OVERFLOW.format(r)))
                points.append(_NAN3)
    residual = [s0n + s1x - i0 for i0, s0n, s1x in points]
    columns = (*zip(*points), residual)
    return {key: memoryview(array("d", column)) for key, column
            in zip(("i0", "s0n", "s1x", "residual"), columns)}, errors

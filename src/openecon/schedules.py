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

Both modes evaluate the whole grid as arrays: full mode through
model.solve_rates, partial mode through the model's rate check, capital
demand and Euler factor with np.float_power.  Values are bit-identical to the
per-point scalar functions, and inadmissible, infeasible or overflowing
points carry the scalar path's error messages.

numpy is imported inside each function, not at module level: the package
imports this module, and the scalar commands (solve, table, root-finding
sweeps) must not pay for loading numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import (_OVERFLOW, _RATE_RULE, ModelInstance, _capital_demand,
                    _check_rate, _euler_factor, solve_at_rate, solve_rates)

if TYPE_CHECKING:          # annotations only
    import numpy as np

MODES = ("full_equilibrium", "partial")


def default_grid(r_ref: float) -> np.ndarray:
    """41 rates from r_ref - 0.2 to r_ref + 0.2, floored at 0.01; ValueError
    where they do not rise (r_ref <= -0.19, or so large they round together)."""
    import numpy as np
    grid = np.linspace(max(0.01, r_ref - 0.2), r_ref + 0.2, 41)
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"no default grid at r_ref={r_ref:.6g}: its 41 rates "
                         "from max(0.01, r_ref - 0.2) to r_ref + 0.2 do not rise")
    return grid


def compute_schedules(instance: ModelInstance, grid, mode: str = "full_equilibrium",
                      r_ref: float | None = None
                      ) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """The schedules on `grid`, as (columns, errors) like model.solve_rates.

    columns maps i0, s0n, s1x and residual (s0n + s1x - i0) to arrays over
    the grid.  errors lists (j, message) for each point where the model is
    inadmissible or a value overflows; those points are NaN.  Partial mode
    requires r_ref inside the grid span.
    """
    import numpy as np
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array of rates")
    if not np.all(np.diff(grid) > 0):          # a NaN fails it too
        raise ValueError("grid must be strictly increasing")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "partial":
        if r_ref is None:
            raise ValueError("partial mode needs a reference rate r_ref")
        if not grid[0] <= r_ref <= grid[-1]:
            raise ValueError("r_ref must lie within the grid span")

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

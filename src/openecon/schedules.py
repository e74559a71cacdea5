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
demand and Euler factor with its array ops.  Values are bit-identical to the
per-point scalar functions, and inadmissible, infeasible or overflowing
points carry the scalar path's error messages.

numpy is imported inside each function, not at module level: the package
imports this module, and the scalar commands (solve, table, root-finding
sweeps) must not pay for loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .model import (DomainError, ModelInstance, _array_ops, _capital_demand,
                    _check_rate, _euler_factor, check_rate, solve_at_rate,
                    solve_rates)

if TYPE_CHECKING:          # annotations only
    import numpy as np

MODES = ("full_equilibrium", "partial")


@dataclass
class ScheduleCurve:
    """I0, S0N, S1X per grid rate, with identity residuals."""

    grid: np.ndarray
    i0: np.ndarray
    s0n: np.ndarray
    s1x: np.ndarray
    residual: np.ndarray           # s0n + s1x - i0
    y0: np.ndarray                 # for scaling residual tolerances
    mode: str
    r_ref: float | None = None
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.errors)


@dataclass
class SlopeReport:
    """Per-segment slope signs for the saving sum and the investment curve."""

    segment_rates: np.ndarray        # midpoints of the grid segments
    saving_sum_slope: np.ndarray
    i0_slope: np.ndarray
    flagged_segments: list[int]      # saving sum not upward in partial mode


def default_grid(r_ref: float, points: int = 41, half_width: float = 0.2) -> np.ndarray:
    """Rate grid centered on r_ref, floored at 0.01."""
    import numpy as np
    return np.linspace(max(0.01, r_ref - half_width), r_ref + half_width, points)


def compute_schedules(instance: ModelInstance, grid, mode: str = "full_equilibrium",
                      r_ref: float | None = None) -> ScheduleCurve:
    """Evaluate the three schedules on `grid`.

    Points where the model is inadmissible or a value overflows are recorded
    in `errors`, set to NaN, and flag the curve.  Partial mode requires r_ref inside the grid
    span.
    """
    import numpy as np
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array of rates")
    if np.any(np.diff(grid) <= 0):
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
        i0, s0n, s1x, y0 = (columns[k] for k in ("i0", "s0n", "s1x", "y0"))
    else:
        ref = solve_at_rate(instance, r_ref)
        d, t, f, p = (instance.demography, instance.technology,
                      instance.fiscal, instance.preferences)
        inc0 = ref.w0 * ref.l0 + ref.x0 - ref.tax0
        inc1 = ref.w1 * ref.l1 + ref.x1 - ref.tax1
        ops, ok = _array_ops(grid.shape)
        with np.errstate(all="ignore"):
            _check_rate(t, grid, ops.reject)
            R = 1.0 + grid
            k1 = _capital_demand(t, ref.L1, grid, ops.power)
            c0 = (inc0 + inc1 / R) / (1.0 + _euler_factor(p, grid, ops.power) / R)
            i0 = k1 - (1.0 - t.delta) * instance.k0
            s0n = ref.y0 - d.n0 * c0 - f.g0
            s1x = ref.tb1 / R
        ok &= np.isfinite(i0) & np.isfinite(s0n) & np.isfinite(s1x)
        errors = []
        for j in np.flatnonzero(~ok):
            try:
                check_rate(t, grid[j])
            except DomainError as exc:
                errors.append((int(j), str(exc)))
            else:
                errors.append((int(j), f"numerical overflow at r={grid[j]}"))
        i0, s0n, s1x, y0 = (np.where(ok, v, np.nan)
                            for v in (i0, s0n, s1x, ref.y0))

    with np.errstate(all="ignore"):
        residual = s0n + s1x - i0
    return ScheduleCurve(grid=grid, i0=i0, s0n=s0n, s1x=s1x, residual=residual,
                         y0=y0, mode=mode, r_ref=r_ref, errors=errors)


def slope_check(curve: ScheduleCurve) -> SlopeReport:
    """Per-segment slope signs; flags non-upward saving segments in partial mode.

    An upward-sloping saving sum (against the downward investment schedule)
    is the local-stability condition behind the crossing geometry; in full
    mode the sum tracks investment identically, so nothing is flagged.
    """
    import numpy as np
    if curve.grid.size < 3:
        raise ValueError("slope check needs at least 3 grid points")
    d_r = np.diff(curve.grid)
    saving_sum = curve.s0n + curve.s1x
    d_sum = np.diff(saving_sum) / d_r
    d_i0 = np.diff(curve.i0) / d_r
    flagged = []
    if curve.mode == "partial":
        flagged = [int(j) for j in np.flatnonzero(d_sum <= 0)]
    return SlopeReport(
        segment_rates=0.5 * (curve.grid[:-1] + curve.grid[1:]),
        saving_sum_slope=d_sum,
        i0_slope=d_i0,
        flagged_segments=flagged,
    )

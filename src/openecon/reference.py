"""Embedded baseline calibration and published comparative-statics targets.

The baseline economy and the five-column results table shipped here are the
regression reference for the `table` and `check` commands.  Each column's
rate is data: the rate is a free input of the model, so the reference rates
travel with the scenarios rather than being recomputed.
"""

from __future__ import annotations

from functools import cache

from .model import ModelInstance


@cache
def baseline_instance() -> ModelInstance:
    """The embedded baseline calibration (16 years per period).

    Every call returns the same frozen instance.
    """
    return ModelInstance(
        gamma=1.2, theta=9.0, rho=0.5, phi=1.0,
        alpha=0.5, delta=1.0, a0=1.0, a1=1.0,
        n0=10.0, n1=10.0, l0_max=35000.0, l1_max=29440.0,
        g0=0.0, g1=0.0, t0=0.0,
        k0=31756.0,
        years_per_period=16.0,
    )


# Result-row keys in presentation order, with display labels.
ROW_ORDER: list[tuple[str, str]] = [
    ("tb0", "X0-M0"),
    ("r", "r"),
    ("r_year", "per-year r"),
    ("i0", "Inv0"),
    ("y1", "Y1"),
    ("y0", "Y0"),
    ("l0", "l0"),
    ("C0", "C0"),
    ("C1", "C1"),
    ("i0_y0", "Inv0/Y0"),
    ("c0_y0", "C0/Y0"),
    ("wage_ratio", "w0/(w1/(1+r))"),
    ("tb0_y0", "(X0-M0)/Y0"),
    ("w0", "w0"),
    ("w0_r", "w0/r"),
    ("w1", "w1"),
]

ROW_KEYS = [key for key, _ in ROW_ORDER]
ROW_LABELS = dict(ROW_ORDER)

# Published reference columns: scenario name -> {row key -> value}.
# Scenario rates are the published per-period values.
REFERENCE_TABLE: dict[str, dict[str, float]] = {
    "baseline": {
        "tb0": -14948.74, "r": 0.4821, "r_year": 0.0249, "i0": 33504.96,
        "y1": 99316.97, "y0": 96492.12, "l0": 29320.00,
        "C0": 77935.89, "C1": 77161.10,
        "i0_y0": 0.3472, "c0_y0": 0.8077, "wage_ratio": 1.4459,
        "tb0_y0": -0.1549, "w0": 0.1646, "w0_r": 0.3413, "w1": 0.1687,
    },
    "higher_gamma": {
        "tb0": -14908.06, "r": 0.4821, "r_year": 0.0249, "i0": 33504.96,
        "y1": 99316.97, "y0": 96492.12, "l0": 29320.00,
        "C0": 77895.21, "C1": 77221.39,
        "i0_y0": 0.3472, "c0_y0": 0.8073, "wage_ratio": 1.4459,
        "tb0_y0": -0.1545, "w0": 0.1646, "w0_r": 0.3413, "w1": 0.1687,
    },
    "higher_theta": {
        "tb0": -14812.42, "r": 0.4839, "r_year": 0.0250, "i0": 33424.65,
        "y1": 99197.87, "y0": 96527.31, "l0": 29341.39,
        "C0": 77915.08, "C1": 77217.68,
        "i0_y0": 0.3463, "c0_y0": 0.8072, "wage_ratio": 1.4488,
        "tb0_y0": -0.1535, "w0": 0.1645, "w0_r": 0.3399, "w1": 0.1685,
    },
    "higher_rho": {
        "tb0": -11359.92, "r": 0.5560, "r_year": 0.0280, "i0": 30397.05,
        "y1": 94598.58, "y0": 96739.03, "l0": 29470.25,
        "C0": 77701.90, "C1": 76921.99,
        "i0_y0": 0.3142, "c0_y0": 0.8032, "wage_ratio": 1.5896,
        "tb0_y0": -0.1174, "w0": 0.1641, "w0_r": 0.2952, "w1": 0.1607,
    },
    "higher_a1": {
        "tb0": -21991.62, "r": 0.4979, "r_year": 0.0256, "i0": 37722.37,
        "y1": 113010.11, "y0": 95891.88, "l0": 28956.36,
        "C0": 80161.13, "C1": 80068.45,
        "i0_y0": 0.3934, "c0_y0": 0.8360, "wage_ratio": 1.2923,
        "tb0_y0": -0.2293, "w0": 0.1656, "w0_r": 0.3325, "w1": 0.1919,
    },
}

# (scenario name, perturbed parameter or None, factor), solved at its "r" row
SUITE_DESIGN: list[tuple[str, str | None, float]] = [
    ("baseline", None, 1.0),
    ("higher_gamma", "gamma", 1.15),
    ("higher_theta", "theta", 1.15),
    ("higher_rho", "rho", 1.15),
    ("higher_a1", "a1", 1.15),
]

"""Two-period open-economy general equilibrium with the interest rate as an input."""

from .model import (DomainError, Equilibrium, InfeasibleError, ModelInstance,
                    annualize_rate, capital_demand, solve_at_rate,
                    solve_rates)
from .closure import (BracketError, ClosureDiagnostics, ClosureSpec,
                      ConvergenceError, calibrated_labor_weight, resolve_rate,
                      welfare_stationarity_check)
from .scenarios import (Scenario, apply_scenario, paper_suite, report_row,
                        run_suite)
from .schedules import compute_schedules
from .reference import baseline_instance

__all__ = [
    "DomainError", "Equilibrium", "InfeasibleError", "ModelInstance",
    "annualize_rate", "capital_demand", "solve_at_rate", "solve_rates",
    "BracketError", "ClosureDiagnostics", "ClosureSpec", "ConvergenceError",
    "calibrated_labor_weight", "resolve_rate", "welfare_stationarity_check",
    "Scenario", "apply_scenario", "paper_suite", "report_row", "run_suite",
    "compute_schedules", "baseline_instance",
]

__version__ = "0.1.0"

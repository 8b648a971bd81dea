"""LP / MILP substrate: a modelling layer and one HiGHS solve."""

from .model import (
    Constraint,
    LinearExpression,
    LinearProgram,
    LPSolution,
    LPStatus,
    Variable,
)
from .scipy_backend import solve_with_scipy

__all__ = [
    "LinearProgram",
    "LinearExpression",
    "Variable",
    "Constraint",
    "LPSolution",
    "LPStatus",
    "solve_with_scipy",
]

"""Unified solver registry, auto-dispatch and shared precomputation.

The public surface is small:

* :func:`solve` -- ``solve(problem)`` auto-dispatches to the best
  exact-first admissible solver; ``solve(problem, solver="name")`` runs a
  named one with admissibility validation;
* :class:`SolverContext` -- memoized per-problem precomputation (structure
  probes, feasibility bounds, re-execution speed floors, compiled arrays)
  shared by the dispatcher and the solvers;
* :class:`Solver` plus the registry accessors -- typed capability metadata
  for every algorithm, consumed by ``python -m repro solvers``, the E13
  ablation experiment and the README capability table;
* :mod:`repro.solvers.limits` -- the central size limits every exponential
  solver's keyword defaults reference.
"""

from __future__ import annotations

from . import limits
from .batch import (
    ColumnarBatchPlan,
    LazyScheduleResult,
    batch_is_feasible,
    plan_batch,
    solve_batch,
)
from .context import SolverContext, problem_kind, speed_model_kind
from .descriptors import (
    EXACTNESS_ORDER,
    InadmissibleSolverError,
    Solver,
    UnknownSolverOptionError,
)
from .dispatch import NoAdmissibleSolverError, select_solver, solve
from .registry import (
    admissible_solvers,
    capability_rows,
    get_solver,
    iter_solvers,
    register_solver,
    solver_names,
    solvers_for,
)

__all__ = [
    "limits",
    "Solver",
    "SolverContext",
    "EXACTNESS_ORDER",
    "InadmissibleSolverError",
    "UnknownSolverOptionError",
    "NoAdmissibleSolverError",
    "solve",
    "solve_batch",
    "plan_batch",
    "ColumnarBatchPlan",
    "LazyScheduleResult",
    "batch_is_feasible",
    "select_solver",
    "register_solver",
    "get_solver",
    "iter_solvers",
    "solver_names",
    "solvers_for",
    "admissible_solvers",
    "capability_rows",
    "problem_kind",
    "speed_model_kind",
]

"""``solve(problem)``: admissibility-checked, exact-first solver dispatch.

The dispatcher is the single front door to the whole algorithm family:

* ``solve(problem)`` (or ``solver="auto"``) inspects the instance through
  its memoized :class:`~repro.solvers.context.SolverContext` and picks the
  *best exact-first* admissible solver -- exact before approximation before
  heuristic, and within a class the most specialised entry (closed forms and
  polynomial structure solvers before general numerical programs before
  exponential enumerations, which are themselves capped by the central size
  limits and simply drop out of the admissible set on large instances);
* ``solve(problem, solver="tricrit-exhaustive")`` runs one named solver,
  validating admissibility first so a structure or size violation fails
  with an explanation instead of a deep solver error.

Either way the returned :class:`~repro.core.problems.SolveResult` is exactly
what the underlying entry point produced, plus a ``metadata["dispatch"]``
record of what ran and why.
"""

from __future__ import annotations

from typing import Any

from ..core.problems import BiCritProblem, SolveResult
from .context import SolverContext
from .descriptors import Solver
from .registry import get_solver, solvers_for

__all__ = ["solve", "select_solver", "NoAdmissibleSolverError"]


class NoAdmissibleSolverError(ValueError):
    """No registered solver admits the instance (reasons in the message)."""


def select_solver(problem: BiCritProblem, *,
                  context: SolverContext | None = None) -> Solver:
    """The solver ``solve(problem, "auto")`` would run, without running it.

    Raises :class:`NoAdmissibleSolverError` listing every solver's rejection
    reason when nothing admits the instance.
    """
    ctx = context if context is not None else SolverContext.for_problem(problem)
    rejections = []
    for solver, ok, reason in solvers_for(problem, context=ctx):
        if ok:
            return solver
        rejections.append(f"  {solver.name}: {reason}")
    raise NoAdmissibleSolverError(
        "no registered solver admits this "
        f"{ctx.kind.upper()}/{ctx.speed_kind} instance "
        f"(structure {ctx.structure!r}, {ctx.num_positive_tasks} tasks):\n"
        + "\n".join(rejections))


def solve(problem: BiCritProblem, solver: str = "auto", *,
          context: SolverContext | None = None,
          validate: bool = True, **options: Any) -> SolveResult:
    """Solve a BI-CRIT / TRI-CRIT instance through the solver registry.

    Parameters
    ----------
    solver:
        ``"auto"`` (default) for exact-first dispatch, or a registry name
        from :func:`repro.solvers.solver_names`.
    context:
        Optional precomputed :class:`SolverContext`; by default the
        problem's memoized context is used (and created on first call).
    validate:
        Check admissibility before running a *named* solver (auto dispatch
        only ever selects admissible solvers).  Disable to forward an
        instance to a solver the descriptors would reject, e.g. to study a
        heuristic outside its supported class.
    options:
        Extra keyword arguments for the underlying entry point, merged over
        the descriptor's ``default_options`` (e.g. a per-call ``max_tasks``
        for the enumerations).  An option the entry point does not take
        raises :class:`~repro.solvers.descriptors.UnknownSolverOptionError`.
        With ``"auto"`` only options every candidate understands should be
        used; prefer naming the solver when passing solver-specific knobs.
    """
    ctx = context if context is not None else SolverContext.for_problem(problem)
    if solver == "auto":
        descriptor = select_solver(problem, context=ctx)
    else:
        descriptor = get_solver(solver)
    result = descriptor(problem, context=ctx, validate=validate and solver != "auto",
                        **options)
    result.metadata.setdefault("dispatch", {
        "solver": descriptor.name,
        "auto": solver == "auto",
        "exactness": descriptor.exactness,
        **ctx.describe(),
    })
    return result

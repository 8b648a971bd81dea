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

``solve`` is a batch of one: it runs
:func:`repro.solvers.batch.solve_batch`, the pipeline the server runs, so a
row gets the same answer from every entry point.  The returned
:class:`~repro.core.problems.SolveResult` carries a ``metadata["dispatch"]``
record of what ran and why.  To study a solver outside its admissible
class, call its descriptor: ``get_solver(name)(problem, validate=False)``.
"""

from __future__ import annotations

from typing import Any

from ..core.problems import BiCritProblem, SolveResult
from .context import SolverContext
from .descriptors import Solver
from .registry import solvers_for

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


def solve(problem: BiCritProblem, solver: str = "auto",
          **options: Any) -> SolveResult:
    """Solve a BI-CRIT / TRI-CRIT instance through the solver registry.

    ``solve_batch([problem], solver, **options)[0]``.

    Parameters
    ----------
    solver:
        ``"auto"`` (default) for exact-first dispatch, or a registry name
        from :func:`repro.solvers.solver_names`; a named solver the instance
        does not admit raises
        :class:`~repro.solvers.descriptors.InadmissibleSolverError`.
    options:
        Extra keyword arguments for the underlying entry point, merged over
        the descriptor's ``default_options`` (e.g. a per-call ``max_tasks``
        for the enumerations).  An option the entry point does not take
        raises :class:`~repro.solvers.descriptors.UnknownSolverOptionError`.
        With ``"auto"`` only options every candidate understands should be
        used; prefer naming the solver when passing solver-specific knobs.
        ``context`` and ``validate`` are rejected the same way: to run a
        solver outside its admissible class, call
        ``get_solver(name)(problem, validate=False)``.
    """
    # Imported here: the batch module imports ``select_solver`` from this one.
    from .batch import solve_batch

    return solve_batch([problem], solver, **options)[0]

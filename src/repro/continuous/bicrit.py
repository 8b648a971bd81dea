"""BI-CRIT CONTINUOUS front-end: closed forms when possible, convex otherwise.

:func:`solve_bicrit_continuous` inspects the instance and picks the cheapest
correct solver:

* a linear chain on a single processor  -> :func:`chain closed form
  <repro.continuous.closed_form.chain_bicrit>`;
* a fork (or join) with one task per processor -> the paper's fork theorem;
* a series-parallel graph mapped with one parallel branch per processor and
  unbounded-feasible speeds -> the equivalent-weight recursion;
* everything else -> the numerical convex program of
  :mod:`repro.continuous.convex`.

The selected route is recorded in the returned metadata so experiments can
report which results came from algebraic formulas and which from numerical
optimisation.
"""

from __future__ import annotations

import math

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..solvers.context import SolverContext
from .closed_form import (
    ClosedFormSolution,
    NoFeasibleSpeedError,
    chain_bicrit,
    fork_bicrit,
    series_parallel_bicrit,
)
from .convex import solve_bicrit_continuous_dag

__all__ = ["solve_bicrit_continuous"]


def _closed_form_to_result(problem: BiCritProblem, solution: ClosedFormSolution,
                           route: str) -> SolveResult:
    graph = problem.graph
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        speed = solution.speeds[t] if w > 0 else problem.platform.fmax
        decisions[t] = TaskDecision.single(t, w, speed if speed > 0 else problem.platform.fmax)
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    return SolveResult(schedule=schedule, energy=schedule.energy(), status="optimal",
                       solver=f"continuous-closed-form[{route}]",
                       metadata={"route": route, "closed_form_energy": solution.energy})


def solve_bicrit_continuous(problem: BiCritProblem, *, prefer_closed_form: bool = True,
                            context: SolverContext | None = None) -> SolveResult:
    """Solve BI-CRIT under the CONTINUOUS model, choosing the best route.

    With ``prefer_closed_form`` (default) the structure of the instance is
    inspected first: single-processor instances use the chain formula, forks
    with one task per processor use the paper's fork theorem, series-parallel
    graphs whose mapping adds no serialisation use the equivalent-weight
    recursion; every other instance (or any closed form whose speeds would
    violate the platform bounds) is solved by the numerical convex program
    of :mod:`repro.continuous.convex`.
    The returned :class:`~repro.core.problems.SolveResult` carries the chosen
    route in its metadata.  The structure probes come from the problem's
    memoized :class:`~repro.solvers.context.SolverContext` (pass ``context``
    to share an already-built one), so repeated solves of the same instance
    classify it once.
    """
    graph = problem.graph
    platform = problem.platform
    ctx = context if context is not None else SolverContext.for_problem(problem)

    if prefer_closed_form:
        # Route 1: single-processor chain (or any graph fully serialised on
        # one processor -- then only the serialisation order matters).
        if ctx.is_single_processor:
            order = problem.mapping.tasks_on(0)
            try:
                solution = chain_bicrit(
                    [graph.weight(t) for t in order], problem.deadline,
                    fmax=platform.fmax, fmin=platform.fmin, task_ids=list(order),
                    exponent=platform.energy_model.exponent,
                )
                return _closed_form_to_result(problem, solution, "chain")
            except NoFeasibleSpeedError as exc:
                return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                                   solver="continuous-closed-form[chain]",
                                   metadata={"message": str(exc)})

        # Route 2: fork theorem.
        source = ctx.fork_source
        if source is not None and ctx.one_task_per_processor and graph.num_tasks > 1:
            children = [t for t in graph.tasks() if t != source]
            try:
                solution = fork_bicrit(
                    graph.weight(source), [graph.weight(c) for c in children],
                    problem.deadline, fmax=platform.fmax, fmin=platform.fmin,
                    exponent=platform.energy_model.exponent,
                    source_id=source, child_ids=children,
                )
                if solution.within_bounds:
                    return _closed_form_to_result(problem, solution, "fork")
            except NoFeasibleSpeedError as exc:
                return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                                   solver="continuous-closed-form[fork]",
                                   metadata={"message": str(exc)})

        # Route 3: series-parallel equivalent-weight recursion (only valid
        # when the mapping does not add serialisation and the resulting
        # speeds respect the bounds).  The decomposition tree is memoized on
        # the context, so the recursion reuses it instead of re-decomposing.
        if ctx.mapping_adds_no_edges and ctx.sp_decomposition is not None:
            try:
                solution = series_parallel_bicrit(
                    ctx.sp_decomposition, problem.deadline,
                    fmax=platform.fmax, fmin=platform.fmin,
                    exponent=platform.energy_model.exponent,
                )
                if solution.within_bounds:
                    return _closed_form_to_result(problem, solution, "series_parallel")
            except NoFeasibleSpeedError:
                pass

    # Route 4: general convex program.
    return solve_bicrit_continuous_dag(problem)

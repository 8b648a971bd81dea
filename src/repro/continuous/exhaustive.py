"""Exhaustive reference solvers (ground truth on small instances).

The complexity results of the paper mean that no polynomial algorithm is
expected for TRI-CRIT (or for BI-CRIT under the DISCRETE models); the test
suite and the complexity experiments therefore rely on exhaustive solvers
whose correctness is easy to argue:

* :func:`solve_tricrit_exhaustive` enumerates every subset of re-executed
  tasks and solves the restricted problem for each -- the global optimum of
  TRI-CRIT CONTINUOUS on any mapped DAG (at exponential cost).  The
  subsets are solved in stacks
  (:func:`~repro.continuous.heuristics.solve_reexec_sets`), and only the
  winner's schedule is built.
  On a single-processor mapping it returns the answer of the vectorized
  chain enumeration (:func:`~repro.continuous.tricrit_chain.solve_tricrit_chain_exact`)
  under its own name, so the two exact names agree bit for bit there;
* :func:`best_known_tricrit` bundles the exhaustive solver (when affordable)
  with the heuristics to produce the best-known reference value used in the
  heuristic-quality experiments.

The subset order (:func:`_reexec_subsets`: by size, then in
``itertools.combinations`` order) and the first strict minimum
(:func:`_cheapest`, relabelled by :func:`_relabel`) are shared with
``tricrit-vdd-exact`` (:mod:`repro.discrete.tricrit_vdd`); the scalar scan
they replaced, one restricted solve per subset, is the test oracle
``tests/oracles.py::best_reexec_subset``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

from ..core.problems import InfeasibleProblemError, SolveResult, TriCritProblem
from ..dag.taskgraph import TaskId
from ..solvers.context import SolverContext
from ..solvers.limits import (
    BEST_KNOWN_EXHAUSTIVE_LIMIT,
    BEST_KNOWN_PRUNED_LIMIT,
    EXHAUSTIVE_SUBSET_MAX_TASKS,
)
from .heuristics import RestrictedSolve, best_of_heuristics, solve_reexec_sets
from .tricrit_chain import solve_tricrit_chain_exact

__all__ = ["solve_tricrit_exhaustive", "best_known_tricrit"]


_C = TypeVar("_C", SolveResult, RestrictedSolve)


def _reexec_subsets(tasks: Sequence[TaskId]) -> Iterator[tuple[TaskId, ...]]:
    """Every subset of ``tasks``: by size, then in ``itertools.combinations``
    order (the row order of the vectorized kernel's mask table)."""
    for r in range(len(tasks) + 1):
        yield from itertools.combinations(tasks, r)


def _cheapest(candidates: Iterable[_C]) -> tuple[_C | None, int]:
    """The first strict minimum-energy feasible candidate, and the count."""
    best: _C | None = None
    evaluated = 0
    for candidate in candidates:
        evaluated += 1
        if candidate.feasible and (best is None or candidate.energy < best.energy):
            best = candidate
    return best, evaluated


def _relabel(best: SolveResult | None, evaluated: int, solver_name: str,
             status: str) -> SolveResult:
    if best is None:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver_name,
                           metadata={"subsets_evaluated": evaluated})
    best.solver = solver_name
    best.status = status
    best.metadata["subsets_evaluated"] = evaluated
    return best


def solve_tricrit_exhaustive(problem: TriCritProblem, *,
                             max_tasks: int = EXHAUSTIVE_SUBSET_MAX_TASKS) -> SolveResult:
    """Global optimum of TRI-CRIT CONTINUOUS by subset enumeration.

    ``max_tasks`` bounds the number of positive-weight tasks (the number of
    restricted solves is ``2^n``); it defaults to the central
    :data:`~repro.solvers.limits.EXHAUSTIVE_SUBSET_MAX_TASKS` shared with
    the VDD-HOPPING subset enumeration.  The metadata reports how many
    subsets were evaluated.  A single-processor mapping takes the chain
    enumeration's answer, relabelled; any other solves the subsets' convex
    programs in stacks and keeps the first strict minimum in
    :func:`_reexec_subsets` order.
    """
    ctx = SolverContext.for_problem(problem)
    positive = ctx.positive_tasks
    if len(positive) > max_tasks:
        raise ValueError(
            f"exhaustive TRI-CRIT limited to {max_tasks} tasks (got {len(positive)})"
        )
    if ctx.is_single_processor:
        result = solve_tricrit_chain_exact(problem)
        result.solver = "tricrit-exhaustive"
        return result
    subsets = [frozenset(subset) for subset in _reexec_subsets(positive)]
    best, evaluated = _cheapest(solve_reexec_sets(problem, subsets, ctx))
    result = best.result(problem, "tricrit-exhaustive") if best is not None else None
    return _relabel(result, evaluated, "tricrit-exhaustive", "optimal")


def best_known_tricrit(problem: TriCritProblem, *,
                       exhaustive_limit: int = BEST_KNOWN_EXHAUSTIVE_LIMIT,
                       pruned_limit: int = BEST_KNOWN_PRUNED_LIMIT) -> SolveResult:
    """Best-known solution: exhaustive, then pruned search, then heuristics.

    Instances up to ``exhaustive_limit`` positive-weight tasks use the blind
    subset enumeration, up to ``pruned_limit`` the branch-and-bound optimum
    (same value, far cheaper), and beyond that the heuristic families.  An
    infeasible instance raises
    :class:`~repro.core.problems.InfeasibleProblemError` on every route, so
    callers never mistake an infinite-energy record for a reference value.
    """
    positive = [t for t in problem.graph.tasks() if problem.graph.weight(t) > 0]
    if len(positive) <= exhaustive_limit:
        result = solve_tricrit_exhaustive(problem, max_tasks=exhaustive_limit)
    elif len(positive) <= pruned_limit:
        from ..solvers.pruned import solve_tricrit_pruned

        result = solve_tricrit_pruned(problem, max_tasks=pruned_limit)
    else:
        result = best_of_heuristics(problem)
    if not result.feasible:
        raise InfeasibleProblemError(
            "no reliable schedule exists: the reliability floors do not fit "
            f"the deadline {problem.deadline:.6g} even without re-execution")
    return result

"""TRI-CRIT under the VDD-HOPPING model.

Section IV of the paper establishes two facts about this variant:

* only two different speeds are ever needed for the execution of a task
  (the BI-CRIT structural result still holds with reliability);
* the problem is NP-complete -- adding the reliability constraint destroys
  the polynomial LP structure that BI-CRIT VDD-HOPPING enjoys, because the
  choice of *which* tasks to re-execute is combinatorial.

Consequently this module offers:

* :func:`solve_tricrit_vdd_exact` -- enumeration of the re-execution subsets
  where, for each subset, speeds are obtained from the restricted continuous
  program and rounded to bracketing modes while preserving reliability
  (exact up to the continuous-restriction rounding; exponential cost,
  matching the NP-completeness result).  The continuous twin's ``2^n``
  subsets are one :func:`~repro.continuous.heuristics.solve_reexec_sets`
  call, in the subset order of ``tricrit-exhaustive``;
* :func:`solve_tricrit_vdd_heuristic` -- the paper's adaptation: run the
  CONTINUOUS best-of heuristic, then round every execution to the two
  closest bracketing modes while matching execution time and reliability
  (:mod:`repro.discrete.rounding`).
"""

from __future__ import annotations

import math

from ..core.problems import SolveResult, TriCritProblem
from ..core.speeds import VddHoppingSpeeds
from ..continuous.exhaustive import _cheapest, _reexec_subsets, _relabel
from ..continuous.heuristics import best_of_heuristics, solve_reexec_sets
from ..solvers.limits import EXHAUSTIVE_SUBSET_MAX_TASKS
from .rounding import round_schedule_to_vdd

__all__ = ["solve_tricrit_vdd_heuristic", "solve_tricrit_vdd_exact"]


def _continuous_twin_problem(problem: TriCritProblem) -> TriCritProblem:
    return TriCritProblem(
        mapping=problem.mapping,
        platform=problem.platform.continuous_twin(),
        deadline=problem.deadline,
        reliability_model=problem.reliability_model,
    )


def _round_result(problem: TriCritProblem, continuous: SolveResult,
                  solver: str, extra: dict | None = None) -> SolveResult:
    if not continuous.feasible:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver, metadata=extra or {})
    rounded = round_schedule_to_vdd(
        continuous.require_schedule(), problem.platform,
        reliability_model=problem.reliability(), match_reliability=True,
    )
    metadata = {
        "continuous_energy": continuous.energy,
        "continuous_solver": continuous.solver,
        "reexecuted": continuous.metadata.get("reexecuted", []),
    }
    if extra:
        metadata.update(extra)
    return SolveResult(schedule=rounded, energy=rounded.energy(), status="feasible",
                       solver=solver, metadata=metadata)


def solve_tricrit_vdd_heuristic(problem: TriCritProblem, *,
                                candidates_per_round: int = 3) -> SolveResult:
    """CONTINUOUS best-of heuristic followed by reliability-preserving rounding."""
    if not isinstance(problem.platform.speed_model, VddHoppingSpeeds):
        raise TypeError("solve_tricrit_vdd_heuristic needs a VddHoppingSpeeds platform")
    continuous = best_of_heuristics(_continuous_twin_problem(problem),
                                    candidates_per_round=candidates_per_round)
    return _round_result(problem, continuous, "tricrit-vdd-heuristic")


def solve_tricrit_vdd_exact(problem: TriCritProblem, *,
                            max_tasks: int = EXHAUSTIVE_SUBSET_MAX_TASKS) -> SolveResult:
    """Subset enumeration for TRI-CRIT VDD-HOPPING (small instances).

    For every subset of re-executed tasks the continuous restricted problem
    is solved and rounded to bracketing modes (the rounding preserves the
    execution times, hence deadline feasibility, and the reliability budget
    of every execution).  The minimum over subsets is returned together with
    the number of subsets evaluated -- the exponential factor that the
    NP-completeness result predicts cannot be avoided in general.

    ``max_tasks`` defaults to the same central
    :data:`~repro.solvers.limits.EXHAUSTIVE_SUBSET_MAX_TASKS` as the
    CONTINUOUS subset enumeration (it used to be 12 here and 14 there for
    the identical ``2^n`` cost).
    """
    if not isinstance(problem.platform.speed_model, VddHoppingSpeeds):
        raise TypeError("solve_tricrit_vdd_exact needs a VddHoppingSpeeds platform")
    positive = [t for t in problem.graph.tasks() if problem.graph.weight(t) > 0]
    if len(positive) > max_tasks:
        raise ValueError(
            f"exact VDD TRI-CRIT limited to {max_tasks} tasks (got {len(positive)})"
        )
    twin = _continuous_twin_problem(problem)
    subsets = [frozenset(subset) for subset in _reexec_subsets(positive)]
    rounded = (_round_result(problem, row.result(twin, "tricrit-restricted"),
                             "tricrit-vdd-exact")
               for row in solve_reexec_sets(twin, subsets))
    return _relabel(*_cheapest(rounded), "tricrit-vdd-exact", "feasible")

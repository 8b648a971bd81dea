"""Approximation algorithm for BI-CRIT under the INCREMENTAL model.

Section IV of the paper: "with the INCREMENTAL model, we can approximate the
solution within a factor ``(1 + delta/fmin)^2 (1 + 1/K)^2``, in a time
polynomial in the size of the instance and in ``K``."

The algorithm implemented here follows the structure behind that guarantee:

1. solve the CONTINUOUS relaxation of the instance.  In the original
   research report the relaxation on a general DAG is itself only solved
   approximately through a ``K``-step discretisation, which is where the
   ``(1 + 1/K)^2`` factor comes from; here the relaxation is solved
   numerically (closed forms or the convex program), and the optional
   ``K`` parameter reproduces the discretisation loss by shrinking the
   deadline to ``D * K / (K + 1)`` before solving, exactly as if every time
   allotment had been rounded down to a multiple of ``D/(K+1)``;
2. round the speed of every task *up* to the next admissible INCREMENTAL
   mode ``fmin + i*delta``.  Rounding up can only shorten tasks, so the
   deadline constraint still holds;
3. the energy of every task grows by at most ``((f + delta)/f)^2 <=
   (1 + delta/fmin)^2``, which combined with step 1 yields the paper's
   bound.

:func:`approximation_bound` returns the guaranteed factor so experiments can
plot measured ratio against the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..core.speeds import IncrementalSpeeds
from ..continuous.bicrit import solve_bicrit_continuous
from ..platform.platform import Platform

__all__ = ["approximation_bound", "solve_bicrit_incremental_approx"]


def approximation_bound(speed_model: IncrementalSpeeds, *, K: int | None = None,
                        exponent: float = 3.0) -> float:
    """The paper's guarantee ``(1 + delta/fmin)^(a-1) * (1 + 1/K)^(a-1)``.

    With the paper's cube law (``a = 3``) both factors are squared.  When
    ``K`` is ``None`` the continuous relaxation is solved exactly and the
    second factor disappears.
    """
    base = (1.0 + speed_model.delta / speed_model.fmin) ** (exponent - 1.0)
    if K is None:
        return base
    if K < 1:
        raise ValueError("K must be a positive integer")
    return base * (1.0 + 1.0 / K) ** (exponent - 1.0)


def solve_bicrit_incremental_approx(problem: BiCritProblem, *,
                                    K: int | None = None) -> SolveResult:
    """Polynomial-time approximation for BI-CRIT INCREMENTAL (and DISCRETE).

    Works for any :class:`~repro.core.speeds.DiscreteSpeeds` platform; the
    proven factor only applies to INCREMENTAL (regularly spaced) speed sets,
    for arbitrary DISCRETE sets the same rounding is a heuristic whose
    quality depends on the largest gap between consecutive modes.
    """
    platform = problem.platform
    speed_model = platform.speed_model
    if not speed_model.is_discrete:
        raise TypeError("the approximation requires a discrete speed model")

    deadline = problem.deadline
    if K is not None:
        if K < 1:
            raise ValueError("K must be a positive integer")
        deadline = problem.deadline * K / (K + 1.0)

    continuous_problem = BiCritProblem(
        mapping=problem.mapping,
        platform=platform.continuous_twin(),
        deadline=deadline,
    )
    relaxation = solve_bicrit_continuous(continuous_problem)
    if not relaxation.feasible:
        # The shrunk deadline may be infeasible even though the original is;
        # retry without the K-shrink before giving up.
        if K is not None:
            fallback = BiCritProblem(mapping=problem.mapping,
                                     platform=platform.continuous_twin(),
                                     deadline=problem.deadline)
            relaxation = solve_bicrit_continuous(fallback)
        if not relaxation.feasible:
            return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                               solver="incremental-approx",
                               metadata={"message": "continuous relaxation infeasible"})

    graph = problem.graph
    continuous_schedule = relaxation.require_schedule()
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        if w <= 0:
            decisions[t] = TaskDecision.single(t, w, platform.fmax)
            continue
        continuous_speed = continuous_schedule.decisions[t].executions[0].mean_speed()
        rounded = speed_model.round_up(min(continuous_speed, platform.fmax))
        decisions[t] = TaskDecision.single(t, w, rounded)
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    metadata = {
        "continuous_energy": relaxation.energy,
        "continuous_solver": relaxation.solver,
        "K": K,
    }
    if isinstance(speed_model, IncrementalSpeeds):
        metadata["guaranteed_factor"] = approximation_bound(
            speed_model, K=K, exponent=platform.energy_model.exponent
        )
    return SolveResult(schedule=schedule, energy=schedule.energy(), status="feasible",
                       solver="incremental-approx", metadata=metadata)

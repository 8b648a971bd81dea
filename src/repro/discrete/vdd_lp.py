"""BI-CRIT under the VDD-HOPPING model: the paper's polynomial LP solution.

Section IV: "With the VDD-HOPPING model, we show that this problem can be
solved in polynomial time using a linear program."

Formulation.  For every task ``T_i`` and every discrete mode ``f_s`` let
``alpha_{i,s} >= 0`` be the time ``T_i`` spends running at speed ``f_s``; let
``b_i >= 0`` be the start time of ``T_i``.  Then

    minimise    sum_{i,s} f_s^3 * alpha_{i,s}                 (energy)
    subject to  sum_s f_s * alpha_{i,s}  = w_i                (work)
                b_j >= b_i + sum_s alpha_{i,s}                (edges of the
                                                               augmented graph)
                b_i + sum_s alpha_{i,s} <= D                  (deadline)

Everything is linear, so the problem is polynomial -- in contrast with the
NP-complete DISCRETE model where each task must pick exactly one mode.

The optimal basic solutions of this LP use at most two non-zero
``alpha_{i,s}`` per task and those two modes can be taken *consecutive*
(mixing two consecutive speeds dominates any other mixture for the same
average speed because ``f^3`` is convex); :func:`two_speed_structure`
extracts and reports that structure, which experiment E4 verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Execution, Schedule, TaskDecision
from ..core.speeds import VddHoppingSpeeds
from ..dag.taskgraph import TaskId
from ..lp import LinearProgram, LPStatus, solve_with_scipy

__all__ = ["solve_bicrit_vdd_lp", "two_speed_structure", "build_vdd_lp"]

_ALPHA_TOL = 1e-7


def build_vdd_lp(problem: BiCritProblem) -> tuple[LinearProgram, dict[tuple[TaskId, int], "object"], dict[TaskId, "object"]]:
    """Build the VDD-HOPPING LP for a BI-CRIT instance.

    Returns ``(model, alpha_vars, start_vars)`` where ``alpha_vars`` maps
    ``(task, mode index)`` to the corresponding LP variable.
    """
    speed_model = problem.platform.speed_model
    if not isinstance(speed_model, VddHoppingSpeeds):
        raise TypeError(
            "the VDD-HOPPING LP requires a VddHoppingSpeeds platform, got "
            f"{type(speed_model).__name__}"
        )
    graph = problem.graph
    augmented = problem.mapping.augmented_graph()
    speeds = speed_model.speeds
    exponent = problem.platform.energy_model.exponent
    deadline = problem.deadline

    model = LinearProgram("vdd_hopping_bicrit")
    alpha = {}
    start = {}
    for t in graph.tasks():
        start[t] = model.add_variable(f"b[{t}]", lower=0.0, upper=deadline)
        for s, f in enumerate(speeds):
            alpha[(t, s)] = model.add_variable(f"alpha[{t},{s}]", lower=0.0,
                                               upper=deadline)

    objective = None
    for t in graph.tasks():
        for s, f in enumerate(speeds):
            term = alpha[(t, s)] * (f ** exponent)
            objective = term if objective is None else objective + term
    model.set_objective(objective, "min")

    for t in graph.tasks():
        work = None
        duration = None
        for s, f in enumerate(speeds):
            w_term = alpha[(t, s)] * f
            work = w_term if work is None else work + w_term
            duration = alpha[(t, s)] if duration is None else duration + alpha[(t, s)]
        model.add_constraint(work == graph.weight(t), name=f"work[{t}]")
        model.add_constraint(start[t] + duration <= deadline, name=f"deadline[{t}]")
    for (u, v) in augmented.edges():
        duration_u = None
        for s in range(len(speeds)):
            duration_u = alpha[(u, s)] if duration_u is None else duration_u + alpha[(u, s)]
        model.add_constraint(start[v] >= start[u] + duration_u, name=f"prec[{u}->{v}]")
    return model, alpha, start


def solve_bicrit_vdd_lp(problem: BiCritProblem, *,
                        canonicalize: bool = True) -> SolveResult:
    """Solve BI-CRIT VDD-HOPPING exactly through the LP formulation.

    With ``canonicalize=True`` (default) every task's optimal speed mixture
    is replaced by the mixture of the two *consecutive* modes bracketing its
    average speed, preserving the work and the duration.  By convexity of
    ``f^3`` this never increases the energy, so the result is still optimal
    -- it is the constructive form of the paper's claim that two consecutive
    speeds always suffice.
    """
    model, alpha, _ = build_vdd_lp(problem)
    solution = solve_with_scipy(model)
    if solution.status != LPStatus.OPTIMAL:
        return SolveResult(schedule=None, energy=math.inf,
                           status="infeasible" if solution.status == LPStatus.INFEASIBLE else "error",
                           solver="vdd-hopping-lp[scipy]",
                           metadata={"lp_status": solution.status,
                                     "num_variables": model.num_variables,
                                     "num_constraints": model.num_constraints})

    graph = problem.graph
    speed_model = problem.platform.speed_model
    speeds = speed_model.speeds
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        if w <= 0:
            decisions[t] = TaskDecision.single(t, w, problem.platform.fmax)
            continue
        intervals = []
        for s, f in enumerate(speeds):
            duration = solution[alpha[(t, s)]]
            if duration > _ALPHA_TOL:
                intervals.append((f, duration))
        if not intervals:  # pragma: no cover - defensive (w>0 forces work)
            intervals = [(problem.platform.fmax, w / problem.platform.fmax)]
        # Rescale minutely so the work matches the weight exactly despite LP
        # tolerance (keeps Schedule.violations clean).
        work = sum(f * d for f, d in intervals)
        if work > 0:
            scale = w / work
            intervals = [(f, d * scale) for f, d in intervals]
        if canonicalize:
            duration = sum(d for _, d in intervals)
            mean_speed = w / duration if duration > 0 else problem.platform.fmax
            intervals = speed_model.hop_split(mean_speed, w) or intervals
        decisions[t] = TaskDecision(t, (Execution.from_intervals(intervals),))
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    return SolveResult(schedule=schedule, energy=schedule.energy(), status="optimal",
                       solver="vdd-hopping-lp[scipy]",
                       metadata={
                           "lp_objective": solution.objective,
                           "lp_backend": solution.backend,
                           "num_variables": model.num_variables,
                           "num_constraints": model.num_constraints,
                       })


@dataclass(frozen=True)
class TwoSpeedReport:
    """Per-task speed-mixing structure of a VDD-HOPPING schedule."""

    speeds_used: dict[TaskId, tuple[float, ...]]
    max_speeds_per_task: int
    all_pairs_consecutive: bool


def two_speed_structure(schedule: Schedule, *, tol: float = 1e-6) -> TwoSpeedReport:
    """Check the paper's structural property on a VDD-HOPPING schedule.

    Reports the set of distinct speeds each task uses, the maximum number of
    distinct speeds over all tasks and whether every task that mixes two
    speeds mixes *consecutive* modes of the platform's speed set.
    """
    speed_model = schedule.platform.speed_model
    modes = getattr(speed_model, "speeds", ())
    speeds_used: dict[TaskId, tuple[float, ...]] = {}
    consecutive = True
    max_count = 0
    for t, decision in schedule.decisions.items():
        used: list[float] = []
        for execution in decision.executions:
            for f, d in execution.intervals:
                if d > tol and not any(abs(f - g) <= tol for g in used):
                    used.append(f)
        used.sort()
        speeds_used[t] = tuple(used)
        max_count = max(max_count, len(used))
        if len(used) == 2 and modes:
            idx = []
            for f in used:
                matches = [k for k, m in enumerate(modes) if abs(m - f) <= tol]
                idx.append(matches[0] if matches else -1)
            if -1 in idx or abs(idx[1] - idx[0]) != 1:
                consecutive = False
        elif len(used) > 2:
            consecutive = False
    return TwoSpeedReport(speeds_used=speeds_used, max_speeds_per_task=max_count,
                          all_pairs_consecutive=consecutive)

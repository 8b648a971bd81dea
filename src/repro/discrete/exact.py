"""Exact solvers for BI-CRIT under the DISCRETE / INCREMENTAL models.

The paper proves this problem NP-complete (Section IV), so no polynomial
algorithm is expected; the exact solvers here serve three purposes:

* ground truth for the approximation algorithm and the rounding heuristics
  on small instances,
* the executable side of the 2-PARTITION reduction of
  :mod:`repro.complexity.reductions`,
* the exponential-scaling measurements of experiment E5 (the brute-force
  assignment counts grow exponentially while the VDD-HOPPING LP of the
  same instance stays polynomial).

Two formulations are provided:

* :func:`solve_bicrit_discrete_milp` -- a mixed-integer program with one
  binary per (task, mode), start-time variables and big-M-free precedence
  constraints (durations are exact linear expressions of the binaries), for
  any mapped DAG;
* :func:`solve_bicrit_discrete_bruteforce` -- plain enumeration of the
  ``m^n`` mode assignments (tiny instances / cross-validation only).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..core.speeds import DiscreteSpeeds
from ..dag.taskgraph import TaskId
from ..lp import LinearProgram, LPStatus, solve_with_scipy
from ..solvers.limits import DISCRETE_BRUTEFORCE_MAX_ASSIGNMENTS

__all__ = [
    "solve_bicrit_discrete_milp",
    "solve_bicrit_discrete_bruteforce",
]


def _discrete_speeds(problem: BiCritProblem) -> tuple[float, ...]:
    speed_model = problem.platform.speed_model
    if not isinstance(speed_model, DiscreteSpeeds):
        raise TypeError(
            "the DISCRETE exact solvers require a DiscreteSpeeds (or subclass) "
            f"platform, got {type(speed_model).__name__}"
        )
    return speed_model.speeds


def _assignment_to_result(problem: BiCritProblem, assignment: dict[TaskId, float],
                          solver: str, metadata: dict) -> SolveResult:
    graph = problem.graph
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        speed = assignment.get(t, problem.platform.fmax)
        decisions[t] = TaskDecision.single(t, w, speed if w > 0 else problem.platform.fmax)
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    return SolveResult(schedule=schedule, energy=schedule.energy(), status="optimal",
                       solver=solver, metadata=metadata)


def solve_bicrit_discrete_milp(problem: BiCritProblem) -> SolveResult:
    """Exact BI-CRIT DISCRETE via mixed-integer programming (HiGHS branch and cut)."""
    speeds = _discrete_speeds(problem)
    graph = problem.graph
    augmented = problem.mapping.augmented_graph()
    deadline = problem.deadline
    exponent = problem.platform.energy_model.exponent

    model = LinearProgram("discrete_bicrit_milp")
    x = {}
    start = {}
    for t in graph.tasks():
        start[t] = model.add_variable(f"b[{t}]", lower=0.0, upper=deadline)
        for s, f in enumerate(speeds):
            x[(t, s)] = model.add_variable(f"x[{t},{s}]", lower=0.0, upper=1.0,
                                           integer=True)

    # Exactly one mode per task.
    for t in graph.tasks():
        chosen = None
        for s in range(len(speeds)):
            chosen = x[(t, s)] if chosen is None else chosen + x[(t, s)]
        # repro: allow[REP006] -- symbolic MILP constraint (operator
        # overloading), not a float comparison
        model.add_constraint(chosen == 1.0, name=f"one_mode[{t}]")

    def duration_expr(t: TaskId):
        w = graph.weight(t)
        expr = None
        for s, f in enumerate(speeds):
            term = x[(t, s)] * (w / f)
            expr = term if expr is None else expr + term
        return expr

    for t in graph.tasks():
        model.add_constraint(start[t] + duration_expr(t) <= deadline,
                             name=f"deadline[{t}]")
    for (u, v) in augmented.edges():
        model.add_constraint(start[v] >= start[u] + duration_expr(u),
                             name=f"prec[{u}->{v}]")

    objective = None
    for t in graph.tasks():
        w = graph.weight(t)
        for s, f in enumerate(speeds):
            term = x[(t, s)] * (w * f ** (exponent - 1.0))
            objective = term if objective is None else objective + term
    model.set_objective(objective, "min")

    solution = solve_with_scipy(model)
    if solution.status != LPStatus.OPTIMAL:
        return SolveResult(schedule=None, energy=math.inf,
                           status="infeasible" if solution.status == LPStatus.INFEASIBLE else "error",
                           solver="discrete-milp[scipy]",
                           metadata={"milp_status": solution.status})

    assignment = {}
    for t in graph.tasks():
        best_s = max(range(len(speeds)), key=lambda s: solution[x[(t, s)]])
        assignment[t] = speeds[best_s]
    return _assignment_to_result(problem, assignment, "discrete-milp[scipy]", {
        "milp_objective": solution.objective,
        "num_variables": model.num_variables,
        "num_constraints": model.num_constraints,
    })


def solve_bicrit_discrete_bruteforce(
        problem: BiCritProblem, *,
        max_assignments: int = DISCRETE_BRUTEFORCE_MAX_ASSIGNMENTS) -> SolveResult:
    """Enumerate every mode assignment (exponential; tiny instances only)."""
    speeds = _discrete_speeds(problem)
    graph = problem.graph
    tasks = list(graph.tasks())
    num_assignments = len(speeds) ** len(tasks)
    if num_assignments > max_assignments:
        raise ValueError(
            f"brute force would enumerate {num_assignments} assignments "
            f"(> {max_assignments}); use the MILP solver instead"
        )
    augmented = problem.mapping.augmented_graph()
    order = augmented.topological_order()
    preds = {t: augmented.predecessors(t) for t in order}
    weights = {t: graph.weight(t) for t in tasks}
    exponent = problem.platform.energy_model.exponent

    best_energy = math.inf
    best_assignment: dict[TaskId, float] | None = None
    evaluated = 0
    for combo in itertools.product(speeds, repeat=len(tasks)):
        evaluated += 1
        assignment = dict(zip(tasks, combo))
        energy = sum(weights[t] * assignment[t] ** (exponent - 1.0) for t in tasks)
        if energy >= best_energy:
            continue
        finish: dict[TaskId, float] = {}
        for t in order:
            s = max((finish[p] for p in preds[t]), default=0.0)
            finish[t] = s + (weights[t] / assignment[t] if weights[t] > 0 else 0.0)
        makespan = max(finish.values(), default=0.0)
        if makespan <= problem.deadline * (1.0 + 1e-12):
            best_energy = energy
            best_assignment = assignment
    if best_assignment is None:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="discrete-bruteforce",
                           metadata={"assignments_evaluated": evaluated})
    return _assignment_to_result(problem, best_assignment, "discrete-bruteforce",
                                 {"assignments_evaluated": evaluated})

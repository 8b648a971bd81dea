"""Numerical convex solver for BI-CRIT CONTINUOUS on arbitrary mapped DAGs.

Section III of the paper: "We formulate the problem for general DAGs as a
geometric programming problem for which efficient numerical schemes exist."
In convex (posynomial-free) form the program is

    minimise    sum_i w_i^a / d_i^(a-1)
    subject to  s_j >= s_i + d_i          for every edge (i, j) of the
                                          augmented graph (precedence +
                                          same-processor ordering),
                s_i + d_i <= D            for every task,
                w_i / fmax_i <= d_i <= w_i / fmin_i,
                s_i >= 0,

with decision variables the durations ``d_i`` and start times ``s_i``.  The
objective is convex for ``a > 1`` and all constraints are linear, so any
KKT point is a global optimum.  The solver uses scipy's ``trust-constr``
(with analytic gradient and Hessian) and falls back to SLSQP; the result is
cross-validated against the closed forms of
:mod:`repro.continuous.closed_form` in the test suite and in experiment E1.

Per-task speed bounds and *effective weights* can be overridden, which is
how the TRI-CRIT heuristics reuse this solver: a re-executed task appears
with effective weight ``2 w_i`` and a lower speed bound equal to the slowest
speed at which two executions still meet the reliability threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping as TMapping

import numpy as np
from scipy import optimize as sciopt

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..dag.taskgraph import TaskGraph, TaskId
from ..platform.mapping import Mapping
from ..platform.platform import Platform

__all__ = ["ConvexResult", "solve_bicrit_convex", "solve_bicrit_continuous_dag"]


@dataclass
class ConvexResult:
    """Raw output of the convex solver (before being wrapped in a Schedule)."""

    durations: dict[TaskId, float]
    speeds: dict[TaskId, float]
    start_times: dict[TaskId, float]
    energy: float
    status: str
    solver_message: str = ""
    iterations: int = 0
    constraint_violation: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def _critical_path_durations(graph: TaskGraph, durations: TMapping[TaskId, float]) -> float:
    finish: dict[TaskId, float] = {}
    for t in graph.topological_order():
        start = max((finish[p] for p in graph.predecessors(t)), default=0.0)
        finish[t] = start + durations[t]
    return max(finish.values(), default=0.0)


def solve_bicrit_convex(mapping: Mapping, platform: Platform, deadline: float, *,
                        effective_weights: TMapping[TaskId, float] | None = None,
                        min_speed: TMapping[TaskId, float] | float | None = None,
                        max_speed: TMapping[TaskId, float] | float | None = None,
                        exponent: float | None = None,
                        method: str = "auto",
                        tol: float = 1e-10) -> ConvexResult:
    """Solve the convex program described in the module docstring.

    Parameters
    ----------
    effective_weights:
        Per-task weight override (defaults to the graph weights).  Used by
        the TRI-CRIT heuristics to model re-executed tasks as ``2 w_i``.
    min_speed / max_speed:
        Scalar or per-task speed bounds; default to the platform's
        ``fmin`` / ``fmax``.
    method:
        ``"slsqp"``, ``"trust-constr"``, or ``"auto"`` (default): try the
        much faster SLSQP first and fall back to the more robust
        trust-region solver when SLSQP does not report a clean optimum.
    """
    if method == "auto":
        fast = solve_bicrit_convex(mapping, platform, deadline,
                                   effective_weights=effective_weights,
                                   min_speed=min_speed, max_speed=max_speed,
                                   exponent=exponent, method="slsqp", tol=tol)
        if fast.status in ("optimal", "infeasible"):
            return fast
        return solve_bicrit_convex(mapping, platform, deadline,
                                   effective_weights=effective_weights,
                                   min_speed=min_speed, max_speed=max_speed,
                                   exponent=exponent, method="trust-constr", tol=tol)

    graph = mapping.graph
    augmented = mapping.augmented_graph()
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    a = float(exponent if exponent is not None else platform.energy_model.exponent)
    if a <= 1.0:
        raise ValueError("power exponent must exceed 1")

    tasks = augmented.topological_order()
    weights = {
        t: float(effective_weights[t]) if effective_weights is not None else graph.weight(t)
        for t in tasks
    }

    def bound_of(spec, default: float, task: TaskId) -> float:
        if spec is None:
            return default
        if isinstance(spec, (int, float)):
            return float(spec)
        return float(spec.get(task, default))

    fmin_of = {t: bound_of(min_speed, platform.fmin, t) for t in tasks}
    fmax_of = {t: bound_of(max_speed, platform.fmax, t) for t in tasks}
    for t in tasks:
        if fmin_of[t] > fmax_of[t] * (1.0 + 1e-12):
            raise ValueError(
                f"task {t!r} has min speed {fmin_of[t]} above max speed {fmax_of[t]}"
            )

    positive = [t for t in tasks if weights[t] > 0]
    zero_tasks = [t for t in tasks if weights[t] <= 0]
    n = len(positive)
    index = {t: i for i, t in enumerate(positive)}

    # Quick infeasibility check at maximum speeds.
    dmin = {t: weights[t] / fmax_of[t] for t in positive}
    dmin.update({t: 0.0 for t in zero_tasks})
    min_makespan = _critical_path_durations(augmented, dmin)
    if min_makespan > deadline * (1.0 + 1e-9):
        return ConvexResult({}, {}, {}, math.inf, "infeasible",
                            solver_message=(
                                f"even at the maximum speeds the makespan is "
                                f"{min_makespan:.6g} > D={deadline:.6g}"))

    if n == 0:
        durations = {t: 0.0 for t in tasks}
        return ConvexResult(durations, {t: 0.0 for t in tasks},
                            {t: 0.0 for t in tasks}, 0.0, "optimal")

    w = np.array([weights[t] for t in positive])
    d_lower = np.array([weights[t] / fmax_of[t] for t in positive])
    d_upper = np.array([
        weights[t] / fmin_of[t] if fmin_of[t] > 0 else np.inf for t in positive
    ])
    d_upper = np.minimum(d_upper, deadline)  # a task can never exceed the deadline

    # Variable vector x = [d (n), s (n)].
    num_vars = 2 * n

    def unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:n], x[n:]

    def objective(x: np.ndarray) -> float:
        d, _ = unpack(x)
        # Speed forms of w^a / d^(a-1) and its derivatives: no 0/0
        # underflow for tiny w and d.
        return float(np.sum(w * (w / d) ** (a - 1.0)))

    def gradient(x: np.ndarray) -> np.ndarray:
        d, _ = unpack(x)
        g = np.zeros(num_vars)
        g[:n] = -(a - 1.0) * (w / d) ** a
        return g

    def hessian(x: np.ndarray) -> np.ndarray:
        d, _ = unpack(x)
        h = np.zeros((num_vars, num_vars))
        h[np.arange(n), np.arange(n)] = a * (a - 1.0) * (w / d) ** a / d
        return h

    # Linear constraints.  Precedence edges involving zero-weight tasks can be
    # contracted: a zero-weight task takes no time, so its start time equals
    # the max of its predecessors' finish times; we keep them as variables-free
    # pass-through by projecting edges onto positive-weight tasks transitively.
    # For simplicity (zero-weight tasks are rare) we treat a zero-weight task
    # as taking zero duration: edges through it become direct edges between its
    # positive neighbours.
    def positive_edges() -> list[tuple[TaskId, TaskId]]:
        if not zero_tasks:
            return list(augmented.edges())
        # Contract zero-weight tasks.
        reachable_from_zero: dict[TaskId, set[TaskId]] = {}
        # Iteratively replace edges through zero-weight tasks.  The fixpoint
        # runs over an insertion-ordered dict, not a set: the returned edge
        # list orders the solver's constraint rows, and set iteration would
        # leak hash-randomised order into them (REP001).
        edge_set: dict[tuple[TaskId, TaskId], None] = dict.fromkeys(
            augmented.edges())
        changed = True
        while changed:
            changed = False
            for z in zero_tasks:
                preds = [u for (u, v) in edge_set if v == z]
                succs = [v for (u, v) in edge_set if u == z]
                for u in preds:
                    for v in succs:
                        if (u, v) not in edge_set and u != v:
                            edge_set[(u, v)] = None
                            changed = True
        return [
            (u, v) for (u, v) in edge_set
            if u not in zero_tasks and v not in zero_tasks
        ]

    rows = []
    lbs = []
    ubs = []
    for (u, v) in positive_edges():
        row = np.zeros(num_vars)
        # s_v - s_u - d_u >= 0
        row[n + index[v]] = 1.0
        row[n + index[u]] = -1.0
        row[index[u]] = -1.0
        rows.append(row)
        lbs.append(0.0)
        ubs.append(np.inf)
    for t in positive:
        row = np.zeros(num_vars)
        # s_t + d_t <= D
        row[n + index[t]] = 1.0
        row[index[t]] = 1.0
        rows.append(row)
        lbs.append(-np.inf)
        ubs.append(deadline)

    A = np.array(rows) if rows else np.zeros((0, num_vars))
    lb = np.array(lbs)
    ub = np.array(ubs)

    bounds_lower = np.concatenate([d_lower, np.zeros(n)])
    bounds_upper = np.concatenate([d_upper, np.full(n, deadline)])

    # Initial point: a single uniform speed chosen so that the makespan is at
    # most the deadline, then durations clipped into their boxes.
    positive_graph_durations = {t: weights[t] for t in positive}
    positive_graph_durations.update({t: 0.0 for t in zero_tasks})
    length_at_unit_speed = _critical_path_durations(augmented, positive_graph_durations)
    f_uniform = max(length_at_unit_speed / deadline, 1e-12)
    f_uniform = min(max(f_uniform, max(fmin_of[t] for t in positive)),
                    min(fmax_of[t] for t in positive))
    d0 = np.clip(w / f_uniform, d_lower, np.minimum(d_upper, deadline))
    start0 = {}
    finish0 = {}
    duration_map = {t: (d0[index[t]] if t in index else 0.0) for t in tasks}
    for t in augmented.topological_order():
        s = max((finish0[p] for p in augmented.predecessors(t)), default=0.0)
        start0[t] = s
        finish0[t] = s + duration_map[t]
    # If the initial durations overshoot the deadline (because of clipping to
    # d_upper), shrink towards d_lower until feasible.
    scale_iter = 0
    while max(finish0.values()) > deadline * (1.0 + 1e-12) and scale_iter < 60:
        d0 = d_lower + 0.5 * (d0 - d_lower)
        duration_map = {t: (d0[index[t]] if t in index else 0.0) for t in tasks}
        finish0 = {}
        for t in augmented.topological_order():
            s = max((finish0[p] for p in augmented.predecessors(t)), default=0.0)
            start0[t] = s
            finish0[t] = s + duration_map[t]
        scale_iter += 1
    s0 = np.array([start0[t] for t in positive])
    x0 = np.concatenate([d0, s0])

    if method == "trust-constr":
        constraints = [sciopt.LinearConstraint(A, lb, ub)] if A.shape[0] else []
        res = sciopt.minimize(
            objective, x0, jac=gradient, hess=hessian, method="trust-constr",
            bounds=sciopt.Bounds(bounds_lower, bounds_upper),
            constraints=constraints,
            options={"gtol": tol, "xtol": 1e-12, "maxiter": 3000, "verbose": 0},
        )
        iterations = int(res.niter)
        constraint_violation = float(getattr(res, "constr_violation", 0.0) or 0.0)
        ok = res.status in (1, 2) or res.success
    elif method == "slsqp":
        ineq_rows = []
        for i in range(A.shape[0]):
            if np.isfinite(ub[i]):
                ineq_rows.append((-A[i], -ub[i]))
            if np.isfinite(lb[i]) and lb[i] > -np.inf:
                ineq_rows.append((A[i], lb[i]))
        G = np.array([r for r, _ in ineq_rows]) if ineq_rows else np.zeros((0, num_vars))
        h = np.array([c for _, c in ineq_rows]) if ineq_rows else np.zeros(0)
        constraints = [{
            "type": "ineq",
            "fun": lambda x, G=G, h=h: G @ x - h,
            "jac": lambda x, G=G: G,
        }] if G.shape[0] else []
        res = sciopt.minimize(
            objective, x0, jac=gradient, method="SLSQP",
            bounds=list(zip(bounds_lower, bounds_upper)),
            constraints=constraints,
            options={"maxiter": 2000, "ftol": 1e-12},
        )
        iterations = int(res.get("nit", 0)) if isinstance(res, dict) else int(res.nit)
        constraint_violation = 0.0
        ok = bool(res.success)
    else:
        raise ValueError(f"unknown method {method!r}")

    x = np.asarray(res.x, dtype=float)
    d, s = unpack(x)
    d = np.clip(d, d_lower, np.maximum(d_lower, d_upper))

    durations = {t: float(d[index[t]]) for t in positive}
    durations.update({t: 0.0 for t in zero_tasks})
    speeds = {t: (weights[t] / durations[t] if durations[t] > 0 else 0.0) for t in tasks}
    start_times = {t: float(s[index[t]]) for t in positive}
    start_times.update({t: 0.0 for t in zero_tasks})
    energy = float(np.sum(w * (w / d) ** (a - 1.0)))

    status = "optimal" if ok else "feasible"
    # Double check that the produced durations respect the deadline along the
    # augmented graph; if they do not (solver tolerance), report "feasible"
    # only when the violation is negligible, otherwise "error".
    achieved = _critical_path_durations(augmented, durations)
    if achieved > deadline * (1.0 + 1e-6):
        status = "error"
    return ConvexResult(durations=durations, speeds=speeds, start_times=start_times,
                        energy=energy, status=status,
                        solver_message=str(getattr(res, "message", "")),
                        iterations=iterations,
                        constraint_violation=constraint_violation)


def solve_bicrit_continuous_dag(problem: BiCritProblem, *, method: str = "auto") -> SolveResult:
    """Solve a :class:`BiCritProblem` with the convex program and wrap the result."""
    result = solve_bicrit_convex(problem.mapping, problem.platform, problem.deadline,
                                 method=method)
    if not result.feasible:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver="continuous-convex",
                           metadata={"message": result.solver_message})
    graph = problem.graph
    decisions = {}
    for t in graph.tasks():
        w = graph.weight(t)
        if w > 0:
            decisions[t] = TaskDecision.single(t, w, result.speeds[t])
        else:
            decisions[t] = TaskDecision.single(t, w, problem.platform.fmax)
    schedule = Schedule(problem.mapping, problem.platform, decisions)
    return SolveResult(schedule=schedule, energy=schedule.energy(), status=result.status,
                       solver="continuous-convex",
                       metadata={
                           "iterations": result.iterations,
                           "message": result.solver_message,
                           "objective": result.energy,
                       })

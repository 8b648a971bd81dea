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
KKT point is a global optimum.  One primal-dual interior-point method finds
it (:func:`_interior_point`, an infeasible-start Mehrotra
predictor-corrector; DESIGN.md states its KKT system, start, step and stop
rules).  Its final duality gap bounds how far the returned energy can be
above the optimum, and is reported as :attr:`ConvexResult.gap`.  The result
is cross-validated against the closed forms of
:mod:`repro.continuous.closed_form` in the test suite and in experiment E1,
and against an independent SciPy optimiser in the tests.

Per-task speed bounds and *effective weights* can be overridden, which is
how the TRI-CRIT heuristics reuse this solver: a re-executed task appears
with effective weight ``2 w_i`` and a lower speed bound equal to the slowest
speed at which two executions still meet the reliability threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping as TMapping

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..dag.taskgraph import TaskGraph, TaskId
from ..platform.mapping import Mapping
from ..platform.platform import Platform

__all__ = ["ConvexResult", "solve_bicrit_convex", "solve_bicrit_continuous_dag"]

#: Relative stop tolerance of the interior point: the duality gap and the
#: dual residual against the energy, the primal residual against ``D``.
_IPM_TOL = 1e-12
_IPM_MAX_ITER = 100


@dataclass
class ConvexResult:
    """Raw output of the convex solver (before being wrapped in a Schedule).

    ``gap`` is the interior point's final duality gap ``s·z``: the returned
    energy is at most ``gap`` above the optimum of the program, up to the
    residuals, which the stop rule holds at float noise.
    """

    durations: dict[TaskId, float]
    speeds: dict[TaskId, float]
    start_times: dict[TaskId, float]
    energy: float
    status: str
    solver_message: str = ""
    iterations: int = 0
    gap: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def _critical_path_durations(graph: TaskGraph, durations: TMapping[TaskId, float]) -> float:
    finish: dict[TaskId, float] = {}
    for t in graph.topological_order():
        start = max((finish[p] for p in graph.predecessors(t)), default=0.0)
        finish[t] = start + durations[t]
    return max(finish.values(), default=0.0)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest ``alpha`` keeping ``v + alpha dv >= 0`` (``inf`` if any)."""
    ratio = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0.0)
    return float(ratio.min())


def _interior_point(G: np.ndarray, h: np.ndarray, w: np.ndarray, a: float,
                    x: np.ndarray, scale: float,
                    base: float) -> tuple[np.ndarray, float, int, str]:
    """Minimise ``base + sum w (w/d)^(a-1)`` over ``x = [d, s]`` subject to
    ``G x <= h``.

    An infeasible-start Mehrotra predictor-corrector.  ``x`` must hold every
    ``d`` strictly inside its box rows; every other row may be violated,
    its slack starting at ``scale``.  Box rows start with their true slack,
    so their residual stays zero and ``d`` stays positive.  Returns the
    point, the duality gap ``s·z``, the iteration count and the status:
    ``"optimal"`` once the gap and both residuals are at the stop
    tolerance, else ``"feasible"`` when the primal residual is, else
    ``"infeasible"``.
    """
    k = w.size
    slack = h - G @ x
    slack = np.where(slack > 0.0, slack, scale)
    z = np.ones(h.size)
    grad = np.zeros(x.size)
    hess = np.zeros(x.size)
    for iterations in range(_IPM_MAX_ITER + 1):
        speed = w / x[:k]
        energy = base + float(np.sum(w * speed ** (a - 1.0)))
        grad[:k] = -(a - 1.0) * speed ** a
        hess[:k] = a * (a - 1.0) * speed ** a / x[:k]
        r_dual = grad + G.T @ z
        r_primal = G @ x + slack - h
        gap = float(slack @ z)
        primal_ok = float(np.max(np.abs(r_primal))) <= _IPM_TOL * scale
        status = "feasible" if primal_ok else "infeasible"
        if primal_ok and gap <= _IPM_TOL * energy and \
                scale * float(np.max(np.abs(r_dual))) <= _IPM_TOL * energy:
            return x, gap, iterations, "optimal"
        if iterations == _IPM_MAX_ITER:
            break
        factor, info = dpotrf(G.T @ (G * (z / slack)[:, None]) + np.diag(hess))
        if info != 0:
            break

        def direction(r_comp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            dx = dpotrs(factor, G.T @ ((r_comp - z * r_primal) / slack) - r_dual)[0]
            ds = -r_primal - G @ dx
            return dx, ds, -(r_comp + z * ds) / slack

        _, ds, dz = direction(slack * z)
        alpha = min(1.0, _max_step(np.concatenate([slack, z]), np.concatenate([ds, dz])))
        mu = gap / h.size
        mu_aff = float((slack + alpha * ds) @ (z + alpha * dz)) / h.size
        dx, ds, dz = direction(slack * z + ds * dz - (mu_aff / mu) ** 3 * mu)
        alpha = min(1.0, 0.99 * _max_step(np.concatenate([slack, z]),
                                          np.concatenate([ds, dz])))
        x = x + alpha * dx
        slack = slack + alpha * ds
        z = z + alpha * dz
    return x, float(slack @ z), iterations, status


def solve_bicrit_convex(mapping: Mapping, platform: Platform, deadline: float, *,
                        effective_weights: TMapping[TaskId, float] | None = None,
                        min_speed: TMapping[TaskId, float] | float | None = None,
                        max_speed: TMapping[TaskId, float] | float | None = None,
                        exponent: float | None = None) -> ConvexResult:
    """Solve the convex program described in the module docstring.

    Parameters
    ----------
    effective_weights:
        Per-task weight override (defaults to the graph weights).  Used by
        the TRI-CRIT heuristics to model re-executed tasks as ``2 w_i``.
    min_speed / max_speed:
        Scalar or per-task speed bounds; default to the platform's
        ``fmin`` / ``fmax``.
    """
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

    def bound_of(spec: TMapping[TaskId, float] | float | None, default: float,
                 task: TaskId) -> float:
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
    # Within that tolerance the deadline counts as met: solve at the
    # maximum-speed makespan, so the program always has a feasible point.
    deadline = max(deadline, min_makespan)

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

    # Rows of G x <= h over x = [d, s]: s_u + d_u - s_v <= 0 per edge,
    # s_t + d_t <= D per task, then -d <= -d_lower, d <= d_upper, -s <= 0.
    edges = positive_edges()
    tail = np.array([index[u] for u, _ in edges], dtype=int)
    head = np.array([index[v] for _, v in edges], dtype=int)
    rows = np.arange(len(edges))
    eye = np.eye(2 * n)
    precedence = np.zeros((len(edges), 2 * n))
    precedence[rows, tail] = 1.0
    precedence[rows, n + tail] = 1.0
    precedence[rows, n + head] = -1.0
    G = np.vstack([precedence, eye[:n] + eye[n:], -eye[:n], eye[:n], -eye[n:]])
    h = np.concatenate([np.zeros(len(edges)), np.full(n, deadline),
                        -d_lower, d_upper, np.zeros(n)])
    # A duration whose box is a point is a constant: fold its column into h
    # and drop its two box rows.
    free = d_upper > d_lower
    d = d_lower.copy()
    columns = np.concatenate([free, np.ones(n, dtype=bool)])
    kept = np.concatenate([np.ones(len(edges) + n, dtype=bool), free, free,
                           np.ones(n, dtype=bool)])
    h = (h - G[:, ~columns] @ d[~free])[kept]
    G = G[kept][:, columns]
    start = np.concatenate([0.5 * (d_lower + d_upper)[free], np.zeros(n)])
    x, gap, iterations, status = _interior_point(
        G, h, w[free], a, start, deadline,
        float(np.sum(w[~free] * (w[~free] / d[~free]) ** (a - 1.0))))
    d[free] = x[:int(free.sum())]
    s = x[int(free.sum()):]

    durations = {t: float(d[index[t]]) for t in positive}
    durations.update({t: 0.0 for t in zero_tasks})
    speeds = {t: (weights[t] / durations[t] if durations[t] > 0 else 0.0) for t in tasks}
    start_times = {t: float(s[index[t]]) for t in positive}
    start_times.update({t: 0.0 for t in zero_tasks})
    energy = float(np.sum(w * (w / d) ** (a - 1.0)))
    message = "" if status == "optimal" else (
        f"interior point stopped after {iterations} iterations, gap {gap:.3g}")
    return ConvexResult(durations=durations, speeds=speeds, start_times=start_times,
                        energy=energy, status=status, solver_message=message,
                        iterations=iterations, gap=gap)


def solve_bicrit_continuous_dag(problem: BiCritProblem) -> SolveResult:
    """Solve a :class:`BiCritProblem` with the convex program and wrap the result."""
    result = solve_bicrit_convex(problem.mapping, problem.platform, problem.deadline)
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
                           "gap": result.gap,
                       })

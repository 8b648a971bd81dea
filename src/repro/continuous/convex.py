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

What the program takes from the mapping -- the augmented order, the
precedence rows, one constraint-matrix set and the maximum-speed critical
path -- is compiled once per mapping into a :class:`ConvexProgram`
(:func:`convex_program`); a solve passes only per-task weights and speed
bounds, one row per program, and the interior point runs on the whole
stack of rows at once.  Every duration is a column of every row: one whose
box is a point (a single execution at ``frel = fmax``, say) is pinned in
its row, so rows with different point boxes share a stack.  The linear
algebra is numpy's: one batched ``np.linalg.cholesky`` of a bordered Newton
matrix per iteration, whose factor holds ``L^-1`` for both directions.

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

from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Schedule, TaskDecision
from ..dag.taskgraph import TaskGraph, TaskId
from ..platform.mapping import Mapping
from ..platform.platform import Platform

__all__ = ["ConvexResult", "ConvexProgram", "ConvexStack", "convex_program",
           "solve_bicrit_convex", "solve_bicrit_continuous_dag"]

#: Relative stop tolerance of the interior point: the duality gap and the
#: dual residual against the energy, the primal residual against ``D``.
_IPM_TOL = 1e-12
_IPM_MAX_ITER = 100

#: Rows per interior-point stack: bounds the ``(rows, constraints,
#: columns)`` temporaries of one solve to a few MB.
STACK_ROWS = 256

#: The bordered factorisation's lower-right block, ``_BORDER * I``: far
#: above any ``K^-1`` entry an iteration can meet, far below overflow.
_BORDER = 1e150

#: Interior-point outcomes, by code.
_STATUS = ("optimal", "feasible", "infeasible")


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


@dataclass
class ConvexStack:
    """Raw output of :meth:`ConvexProgram.solve`, one entry per row.

    ``durations`` and ``starts`` are ``(S, n)`` over the program's positive
    tasks.  A row whose deadline cannot be met even at the maximum speeds
    has ``inf`` energy and NaN durations and starts.
    """

    durations: np.ndarray
    starts: np.ndarray
    energy: np.ndarray
    status: list[str]
    iterations: np.ndarray
    gap: np.ndarray
    messages: list[str]


def _residual(r: np.ndarray) -> np.ndarray:
    """Per row of ``(S, c, 1)`` residuals, the largest magnitude."""
    return np.maximum.reduce(np.abs(r), axis=1, keepdims=True)


def _factor(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of matrices, and which fail.

    A failed matrix gets a zero factor.  One batched call; only when it
    fails are the matrices factored one by one, to tell which.
    """
    try:
        return np.linalg.cholesky(A), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    factors = np.zeros_like(A)
    failed = np.zeros(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            factors[i] = np.linalg.cholesky(A[i:i + 1])[0]
        except np.linalg.LinAlgError:
            failed[i] = True
    return factors, failed


def _interior_point(program: ConvexProgram, h: np.ndarray, w: np.ndarray, a: float,
                    x: np.ndarray, scale: np.ndarray, pinned: np.ndarray | None,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimise ``sum w (w/d)^(a-1)`` over ``x = [d, s]`` subject to
    ``G x <= h``, for every row of a stack.

    ``h``, ``w``, ``x`` (2-D) and ``scale`` (1-D) hold one row per program;
    ``program``'s matrices are shared.  An infeasible-start Mehrotra
    predictor-corrector.  ``x`` must hold every ``d`` strictly inside its
    box rows, or at its point; every other row may be violated, its slack
    starting at ``scale``.  Box rows start with their true slack, so their
    residual stays zero and ``d`` stays positive.  ``pinned`` ``(S, n)``
    marks the point-box durations, ``None`` when no row has one.  A pinned
    duration's Newton row and column are a unit entry with zero right side
    and zero dual residual, so its step is exactly 0; its two box rows are
    inert: dual 0, ``h = G x + σ`` (residual 0), and no part in the centring
    target, the step rules or the constraint count.  A row leaves the stack
    when it stops: ``"optimal"`` once the gap and both residuals are at the
    stop tolerance; past the iteration cap or on a failed Cholesky
    factorisation, ``"feasible"`` when the primal residual is, else
    ``"infeasible"``.  No operation mixes two rows, so a row gets the same
    bits alone as in any stack.  Returns the points, the duality gaps
    ``s·z``, the iteration counts and the status codes (indices into
    ``_STATUS``).

    Inside, every row is a column, ``(S, ·, 1)``, so that each product
    with the shared matrices is one matrix-vector product per row.
    """
    G, GT, GH, GHT = program.G, program.GT, program.GH, program.GHT
    count, n = w.shape
    p = h.shape[1]
    x_out = np.empty_like(x)
    gap_out = np.empty(count)
    iterations_out = np.empty(count, dtype=int)
    code_out = np.empty(count, dtype=int)
    live = np.arange(count)
    x, h, w = x[:, :, None], h[:, :, None], w[:, :, None]
    scale = scale[:, None, None]
    Gx = G @ x
    slack = h - Gx
    # ``sz`` holds the slacks, then the duals: one array for the step rules.
    sz = np.concatenate([np.where(slack > 0.0, slack, scale), np.ones_like(h)], axis=1)
    constraints: float | np.ndarray = p
    pins: tuple[np.ndarray, ...] = ()
    if pinned is not None:
        # Per row: ``free`` zeroes a pinned column's row of ``L^-1`` (so its
        # right side) and its dual residual, ``cross`` marks its Newton row
        # and column, ``active`` zeroes an inert row's centring target and
        # ``pad`` makes an inert dual's step ratio 0/1.
        column = np.concatenate([pinned, np.zeros_like(pinned)], axis=1)[:, :, None]
        inert = np.zeros((count, p, 1), dtype=bool)
        inert[:, program.edges + n:program.edges + 3 * n, 0] = np.tile(pinned, 2)
        h = np.where(inert, Gx + sz[:, :p], h)
        sz[:, p:][inert] = 0.0
        pins = free, cross, active, pad, constraints = (
            (~column).astype(float), column | column.transpose(0, 2, 1),
            (~inert).astype(float),
            np.concatenate([np.zeros_like(inert), inert], axis=1).astype(float),
            p - 2.0 * np.count_nonzero(pinned, axis=1)[:, None, None])
    grad = np.zeros_like(x)
    hessian = a * (a - 1.0)
    m = x.shape[1]
    eye = np.eye(m)
    # ``[[K, I], [I, C]]``: the Cholesky factor of this bordered matrix is
    # ``[[L, 0], [L^-T, *]]``, so one factorisation both tests the Newton
    # matrix ``K = L Lᵀ`` and yields ``K^-1 = L^-T L^-1``.  ``C`` is large
    # enough that its block, ``C - K^-1``, never decides the outcome.
    bordered = np.zeros((count, 2 * m, 2 * m))
    bordered[:, m:, :m] = bordered[:, :m, m:] = eye
    bordered[:, m:, m:] = _BORDER * eye
    for iterations in range(_IPM_MAX_ITER + 1):
        slack, z = sz[:, :p], sz[:, p:]
        d = x[:, :n]
        power = (w / d) ** a
        grad[:, :n] = -(a - 1.0) * power
        r_dual = GT @ z + grad
        r_primal = G @ x + slack - h
        gap = np.add.reduce(slack * z, axis=1, keepdims=True)
        tol_energy = _IPM_TOL * np.add.reduce(d * power, axis=1, keepdims=True)
        # The gap test is the cheap one: the residual tests run for the
        # rows that pass it.
        optimal = (gap <= tol_energy).reshape(-1)
        if np.count_nonzero(optimal):
            if pins:
                r_dual *= free
            optimal &= ((_residual(r_primal) <= _IPM_TOL * scale)
                        & (scale * _residual(r_dual) <= tol_energy)).reshape(-1)
        stop = optimal | (iterations == _IPM_MAX_ITER)
        ratio = z / slack
        if np.count_nonzero(stop) < live.size:
            bordered[:, :m, :m] = GHT @ (GH * np.concatenate([ratio, hessian * power / d],
                                                             axis=1))
            if pins:
                np.copyto(bordered[:, :m, :m], eye, where=cross)
            factors, failed = _factor(bordered)
            stop |= failed
        if np.count_nonzero(stop):
            done = live[stop]
            x_out[done] = x[stop, :, 0]
            gap_out[done] = gap[stop, 0, 0]
            iterations_out[done] = iterations
            feasible = (_residual(r_primal[stop]) <= _IPM_TOL * scale[stop]).reshape(-1)
            code_out[done] = np.where(optimal[stop], 0, np.where(feasible, 1, 2))
            keep = ~stop
            live, x, sz, w, h, scale, grad, bordered, factors, r_primal, gap, \
                ratio = (v[keep] for v in (live, x, sz, w, h, scale, grad, bordered,
                                           factors, r_primal, gap, ratio))
            if live.size == 0:
                break
            if pins:
                pins = free, cross, active, pad, constraints = tuple(v[keep] for v in pins)
            slack, z = sz[:, :p], sz[:, p:]
        inverse_t = factors[:, m:, :m].transpose(0, 2, 1).copy()  # L^-1
        if pins:
            inverse_t *= free
        inverse = inverse_t.transpose(0, 2, 1)
        # Newton's right side is Gᵀ(r_c/σ) - q for a complementarity
        # residual r_c; the predictor's r_c = σ∘z makes it -q.
        q = GT @ (ratio * r_primal) + grad
        divisor = sz + pad if pins else sz
        dx = -(inverse @ (inverse_t @ q))
        ds = -r_primal - G @ dx
        dsz = np.concatenate([ds, -z - ratio * ds], axis=1)
        step = sz + dsz / np.maximum(1.0, -np.minimum.reduce(dsz / divisor, axis=1,
                                                             keepdims=True))
        centre = np.add.reduce(step[:, :p] * step[:, p:], axis=1, keepdims=True) / gap
        target = centre ** 3 * (gap / constraints)
        shift = (dsz[:, :p] * dsz[:, p:] - (target * active if pins else target)) / slack
        dx = inverse @ (inverse_t @ (GT @ shift - q))
        ds = -r_primal - G @ dx
        dsz = np.concatenate([ds, -(z + shift) - ratio * ds], axis=1)
        alpha = 0.99 / np.maximum(0.99, -np.minimum.reduce(dsz / divisor, axis=1,
                                                           keepdims=True))
        x = x + alpha * dx
        sz = sz + alpha * dsz
    return x_out, gap_out, iterations_out, code_out


def _positive_edges(augmented: TaskGraph, zero_tasks: list[TaskId],
                    ) -> list[tuple[TaskId, TaskId]]:
    """The augmented edges with every zero-weight task contracted.

    A zero-weight task takes no time, so an edge path through it becomes a
    direct edge between its positive neighbours.  The fixpoint runs over an
    insertion-ordered dict, not a set: the returned edge list orders the
    program's constraint rows, and set iteration would leak hash-randomised
    order into them (REP001).
    """
    if not zero_tasks:
        return list(augmented.edges())
    edge_set: dict[tuple[TaskId, TaskId], None] = dict.fromkeys(augmented.edges())
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
    zero = set(zero_tasks)
    return [(u, v) for (u, v) in edge_set if u not in zero and v not in zero]


class ConvexProgram:
    """The convex program's structure for one mapping, compiled once.

    ``tasks`` is the augmented topological order and ``positive`` the tasks
    that take time, in that order; zero-weight tasks are contracted out of
    the precedence rows.  Over ``x = [d, s]`` the rows of ``G x <= h`` are
    ``s_u + d_u - s_v <= 0`` per edge, ``s_t + d_t <= D`` per task, then
    ``-d <= -lo``, ``d <= hi`` and ``-s <= 0``; ``GH`` is ``G`` with one
    more row per duration, ``[I 0]``, so that ``GHᵀ diag(v) GH`` with
    ``v = [z/σ, ∇²f]`` is the whole Newton matrix.  ``G``, ``GT``, ``GH``
    and ``GHT`` serve every row and every point box.  The maximum-speed
    critical path is kept as index arrays, one ``(tasks, predecessors)``
    pair per level of the precedence DAG.  Build one with
    :func:`convex_program`, which keeps it with the mapping.
    """

    def __init__(self, augmented: TaskGraph, zero: frozenset[TaskId]) -> None:
        self.tasks: tuple[TaskId, ...] = tuple(augmented.topological_order())
        self.positive: tuple[TaskId, ...] = tuple(t for t in self.tasks if t not in zero)
        n = len(self.positive)
        index = {t: i for i, t in enumerate(self.positive)}
        edges = _positive_edges(augmented, [t for t in self.tasks if t in zero])
        tail = np.array([index[u] for u, _ in edges], dtype=np.intp)
        head = np.array([index[v] for _, v in edges], dtype=np.intp)
        rows = np.arange(len(edges))
        eye = np.eye(2 * n)
        precedence = np.zeros((len(edges), 2 * n))
        precedence[rows, tail] = 1.0
        precedence[rows, n + tail] = 1.0
        precedence[rows, n + head] = -1.0
        G = np.vstack([precedence, eye[:n] + eye[n:], -eye[:n], eye[:n], -eye[n:]])
        # A product's BLAS kernel, and so its rounding, follows the layout:
        # ``G`` is column-major, the other three row-major.
        self.G = np.asfortranarray(G)
        self.GT = np.ascontiguousarray(G.T)
        self.GH = np.vstack([G, eye[:n]])
        self.GHT = np.ascontiguousarray(self.GH.T)
        self.edges = len(edges)
        # Edges run forward in ``positive`` order, so one pass sets every
        # task's level; a predecessor list is padded with ``n``, a column
        # that holds the start time 0.
        preds: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(tail.tolist(), head.tolist()):
            preds[v].append(u)
        level = [0] * n
        for i in range(n):
            level[i] = 1 + max(level[j] for j in preds[i]) if preds[i] else 0
        self._levels: list[tuple[np.ndarray, np.ndarray]] = []
        for lv in range(max(level, default=-1) + 1):
            members = [i for i in range(n) if level[i] == lv]
            width = max(1, max(len(preds[i]) for i in members))
            self._levels.append((np.array(members, dtype=np.intp), np.array(
                [preds[i] + [n] * (width - len(preds[i])) for i in members],
                dtype=np.intp)))

    def makespan(self, durations: np.ndarray) -> np.ndarray:
        """Per row of ``durations`` ``(S, n)``, the longest path's length."""
        finish = np.zeros((durations.shape[0], durations.shape[1] + 1))
        for members, preds in self._levels:
            finish[:, members] = finish[:, preds].max(axis=2) + durations[:, members]
        return finish.max(axis=1)

    def solve(self, w: np.ndarray, fmin: np.ndarray, fmax: np.ndarray, deadline: float,
              a: float) -> ConvexStack:
        """Solve the program once per row of ``w`` / ``fmin`` / ``fmax``.

        The three are ``(S, n)`` over :attr:`positive`: effective weights
        (all positive) and speed bounds.  A row whose maximum-speed
        makespan exceeds ``deadline`` by more than 1e-9 relative is
        infeasible; within that tolerance it is solved at that makespan,
        so the program always has a feasible point.  A duration whose box
        is a point is pinned there.  Rows are solved in row order, in
        stacks of at most :data:`STACK_ROWS`, whatever their point boxes.
        """
        rows, n = w.shape
        if n == 0:
            return ConvexStack(durations=np.zeros((rows, 0)), starts=np.zeros((rows, 0)),
                               energy=np.zeros(rows), status=["optimal"] * rows,
                               iterations=np.zeros(rows, dtype=int), gap=np.zeros(rows),
                               messages=[""] * rows)
        durations = np.full((rows, n), np.nan)
        starts = np.full((rows, n), np.nan)
        energy = np.full(rows, np.inf)
        codes = np.full(rows, 2)
        iterations = np.zeros(rows, dtype=int)
        gap = np.zeros(rows)
        d_lower = w / fmax
        min_makespan = self.makespan(d_lower)
        reachable = ~(min_makespan > deadline * (1.0 + 1e-9))
        messages = [""] * rows
        for i in np.flatnonzero(~reachable).tolist():
            messages[i] = (f"even at the maximum speeds the makespan is "
                           f"{min_makespan[i]:.6g} > D={deadline:.6g}")
        D = np.maximum(deadline, min_makespan)
        d_upper = np.where(fmin > 0, w / np.where(fmin > 0, fmin, 1.0), np.inf)
        d_upper = np.minimum(d_upper, D[:, None])  # a task never exceeds the deadline
        pinned = d_upper <= d_lower
        solvable = np.flatnonzero(reachable)
        for start in range(0, solvable.size, STACK_ROWS):
            r = solvable[start:start + STACK_ROWS]
            lo, hi, wr = d_lower[r], d_upper[r], w[r]
            h = np.zeros((r.size, self.edges + 4 * n))
            h[:, self.edges:self.edges + n] = D[r][:, None]
            h[:, self.edges + n:self.edges + 2 * n] = -lo
            h[:, self.edges + 2 * n:self.edges + 3 * n] = hi
            pins = pinned[r]
            start_x = np.concatenate([np.where(pins, lo, 0.5 * (lo + hi)),
                                      np.zeros((r.size, n))], axis=1)
            x, gap[r], iterations[r], codes[r] = _interior_point(
                self, h, wr, a, start_x, D[r], pins if pins.any() else None)
            durations[r] = x[:, :n]
            starts[r] = x[:, n:]
            energy[r] = np.sum(wr * (wr / x[:, :n]) ** (a - 1.0), axis=1)
        status = [_STATUS[c] for c in codes.tolist()]
        for i in np.flatnonzero(reachable & (codes != 0)).tolist():
            messages[i] = (f"interior point stopped after {iterations[i]} iterations, "
                           f"gap {gap[i]:.3g}")
        return ConvexStack(durations=durations, starts=starts, energy=energy, status=status,
                           iterations=iterations, gap=gap, messages=messages)


def convex_program(mapping: Mapping, zero: frozenset[TaskId] = frozenset()) -> ConvexProgram:
    """``mapping``'s :class:`ConvexProgram` with the tasks ``zero`` taking no
    time, compiled on first use and kept with the mapping."""
    return mapping.compiled(("convex-program", zero),
                            lambda: ConvexProgram(mapping.augmented_graph(), zero))


def solve_bicrit_convex(mapping: Mapping, platform: Platform, deadline: float, *,
                        effective_weights: TMapping[TaskId, float] | None = None,
                        min_speed: TMapping[TaskId, float] | float | None = None,
                        max_speed: TMapping[TaskId, float] | float | None = None,
                        exponent: float | None = None) -> ConvexResult:
    """Solve the convex program described in the module docstring.

    The mapping's compiled :class:`ConvexProgram` solves a stack of one row.

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
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    a = float(exponent if exponent is not None else platform.energy_model.exponent)
    if a <= 1.0:
        raise ValueError("power exponent must exceed 1")

    weights = {
        t: float(effective_weights[t]) if effective_weights is not None else graph.weight(t)
        for t in graph.tasks()
    }
    program = convex_program(mapping, frozenset(t for t, v in weights.items() if v <= 0))
    tasks = program.tasks

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

    positive = program.positive

    def row(values: dict[TaskId, float]) -> np.ndarray:
        return np.array([[values[t] for t in positive]], dtype=float).reshape(1, -1)

    stack = program.solve(row(weights), row(fmin_of), row(fmax_of), float(deadline), a)
    if math.isinf(stack.energy[0]):
        return ConvexResult({}, {}, {}, math.inf, "infeasible",
                            solver_message=stack.messages[0])
    zero_tasks = [t for t in tasks if weights[t] <= 0]
    durations = dict(zip(positive, stack.durations[0].tolist()))
    durations.update({t: 0.0 for t in zero_tasks})
    speeds = {t: (weights[t] / durations[t] if durations[t] > 0 else 0.0) for t in tasks}
    start_times = dict(zip(positive, stack.starts[0].tolist()))
    start_times.update({t: 0.0 for t in zero_tasks})
    return ConvexResult(durations=durations, speeds=speeds, start_times=start_times,
                        energy=float(stack.energy[0]), status=stack.status[0],
                        solver_message=stack.messages[0],
                        iterations=int(stack.iterations[0]), gap=float(stack.gap[0]))


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

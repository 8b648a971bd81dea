"""Pruned exact TRI-CRIT search: branch-and-bound over re-execution subsets.

The blind enumerators (:func:`repro.continuous.exhaustive.solve_tricrit_exhaustive`,
every subset in stacks of :func:`repro.continuous.heuristics.solve_reexec_sets`,
and :func:`repro.continuous.tricrit_chain.solve_tricrit_chain_exact`, the
vectorized subset kernel :func:`repro.solvers.batch.chain_subset_minimum`)
hit the ``2^n`` wall around 14-22 positive-weight tasks.  This module searches the
same subset space with three pruning devices, which together push the exact
ceiling to :data:`~repro.solvers.limits.PRUNED_EXACT_MAX_TASKS` and yield a
gap-certified anytime mode beyond it:

1. **Dominance.**  A task whose cheapest re-execution (both copies at the
   equal-speed reliability floor ``f_r``) already costs at least its
   cheapest single execution (at ``s = max(f_rel, fmin)``) never re-executes
   in some optimum: swapping it to a single execution of duration
   ``d' = min(d, w/s) <= d`` only shrinks the schedule (feasible on any
   structure) and does not increase the energy, because
   ``2 w f_r^{a-1} >= w s^{a-1}`` bounds the energy at every shared
   duration.  Such tasks are forced *Out* before the search starts.
2. **Lagrangian dual lower bound.**  Relaxing the per-processor deadline
   with a multiplier ``lam >= 0`` decouples the tasks: each task
   contributes ``phi_i(lam) = min_opt min_d [c_opt / d^{a-1} + lam d]``
   over its still-allowed options (single / re-executed), a one-dimensional
   problem solved in closed form.  By weak duality *every* evaluated
   ``lam`` yields a valid lower bound ``L(lam) = sum_i phi_i(lam) - lam D``
   on every completion of the partial assignment; ``L`` is concave with a
   piecewise closed-form supergradient ``sum_i d_i(lam) - D``, so one sorted
   breakpoint scan maximises it exactly.  Tasks mapped to the same
   processor serialise within the makespan, so the bound decomposes as a
   sum of per-processor duals.  The scan's inputs -- per task and option
   state (*In*, *Out*, undecided), the minimum duration, the ``lam = 0``
   energy and duration and the clipped duration at every breakpoint --
   are per-instance constants: each processor holds one table of them,
   built on first use, and a node's bound selects one column per task and
   sums the rows.
   Branching on one task changes one processor's dual, so each
   processor's result is memoised by its tasks' states.  When
   ``lam = 0`` already satisfies the deadline (loose-deadline instances)
   the dual choice is primal-feasible and the bound is *exact* -- a fast
   path that closes the node immediately.
3. **Weight-class DP.**  On a single processor the restricted allocation
   depends only on the *multiset* of (effective weight, floor) pairs, so
   equal-weight tasks are interchangeable: enumerating re-execution *count
   vectors* (one count per weight class) covers all ``2^n`` subsets with
   ``prod_w (count_w + 1)`` representative solves.  When that product fits
   :data:`~repro.solvers.limits.PRUNED_CLASS_ENUM_BUDGET` the search is a
   direct DP scan instead of a tree.

Leaves are evaluated exactly.  On a single processor the search
water-fills straight from its precomputed duration arrays (the hot inner
loop), and the returned schedule comes from the library's one fixed-subset
solve, :func:`repro.continuous.heuristics.solve_reexec_sets`, as a stack of
one (:func:`~repro.continuous.heuristics.solve_with_reexec_set`).  On any
other mapping an evaluation is a row of that solve's convex stacks, which
keeps the speeds and the energy but builds no schedule; the one schedule
is built for the returned subset.  The threshold sweep below solves each
of its grids as one stack.

Incumbents come from the dual solution itself: each bound evaluation
suggests a completion (the per-task option choices at the best multiplier),
and at the root the *threshold ordering* -- tasks sorted by the multiplier
at which their re-execution stops paying -- is scanned for the best prefix
subset, which lands a near-optimal feasible schedule in ``O(log n)``-ish
restricted solves even at ``n = 500``.

:func:`solve_tricrit_pruned` runs the search to completion (status
``"optimal"``); :func:`solve_tricrit_pruned_gap` is the anytime variant with
a node budget and a target gap, reporting the certified
``metadata["optimality_gap"] = (incumbent - best outstanding bound) /
incumbent`` -- the incumbent is feasible, the bound is valid, so the true
optimum provably lies in between.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from ..continuous.heuristics import RestrictedSolve, solve_reexec_sets, solve_with_reexec_set
from ..core.problems import SolveResult, TriCritProblem
from ..dag.taskgraph import TaskId
from ..optimize.allocation import AllocationResult, allocate_durations_with_bounds
from .context import SolverContext
from .limits import (
    PRUNED_CLASS_ENUM_BUDGET,
    PRUNED_EXACT_MAX_TASKS,
    PRUNED_GAP_NODE_BUDGET,
)

__all__ = ["solve_tricrit_pruned", "solve_tricrit_pruned_gap"]

#: Relative tolerance for incumbent-vs-bound comparisons.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class _Eval:
    """Memoized outcome of one restricted (fixed-subset) solve."""

    feasible: bool
    energy: float
    row: RestrictedSolve | None = None  # kept only on the multi-processor path


@dataclass
class _Instance:
    """Flat per-positive-task arrays plus the memoized subset evaluator."""

    problem: TriCritProblem
    ctx: SolverContext
    tasks: list[TaskId]  # positive-weight tasks, topological order
    w: np.ndarray  # weights
    proc: np.ndarray  # processor index per task
    lo_s: np.ndarray  # single-execution duration interval [lo_s, hi_s]
    hi_s: np.ndarray
    lo_r: np.ndarray  # re-execution duration interval [lo_r, hi_r]
    hi_r: np.ndarray
    single_ok: np.ndarray
    reexec_ok: np.ndarray
    tau: np.ndarray  # switch price per task, from its floor speeds
    exponent: float

    def __post_init__(self) -> None:
        self._cache: dict[frozenset[TaskId], _Eval] = {}
        self.bound_evaluations = 0
        self._proc_index = [np.flatnonzero(self.proc == p)
                            for p in range(int(self.proc.max()) + 1
                                           if self.proc.size else 0)]
        # Dual-bound constants, fixed per instance.  Per processor, the
        # sorted prices at which any option's duration can hit a clip point
        # or any task's choice can switch: a node's own breakpoints are a
        # subset, and the extra ones only split a segment on which the
        # supergradient keeps its form.  The bound prices each switch from
        # the speeds its duration caps imply, ``w/hi``: at a tie the
        # maximiser sits on a switch price and its completion pick follows
        # these bits, so the search's node and subset counts do too.
        a = self.exponent
        with np.errstate(divide="ignore", invalid="ignore"):
            self._dual_tau = _switch_prices(self.w / self.hi_s,
                                            2.0 * self.w / self.hi_r, a)
            clip_prices = (a - 1.0) * np.stack([
                self.w / self.lo_s, self.w / self.hi_s,
                2.0 * self.w / self.lo_r, 2.0 * self.w / self.hi_r]) ** a
        self._breakpoints = []
        for idx in self._proc_index:
            bp = np.concatenate([clip_prices[:, idx].ravel(),
                                 self._dual_tau[idx]])
            # ``np.unique``'s values (positive and finite here) without its
            # lazy ``numpy.ma`` import on the first served request.
            bp = np.sort(bp[(bp > 0.0) & np.isfinite(bp)])
            keep = np.ones(bp.size, dtype=bool)
            keep[1:] = bp[1:] != bp[:-1]
            self._breakpoints.append(bp[keep])
        self._dual_tables: list[_DualTable | None] = [None] * len(self._proc_index)
        self._dual_memo: dict[tuple[int, bytes],
                              tuple[float, np.ndarray | None, bool]] = {}
        self._position = {t: i for i, t in enumerate(self.tasks)}

    @property
    def evaluations(self) -> int:
        return len(self._cache)

    def _chain_allocation(self, subset: frozenset[TaskId]) -> AllocationResult | None:
        """Restricted allocation on a single processor, from the flat arrays.

        All positive tasks serialise within the deadline, so the restricted
        problem is exactly the bounded water-filling -- with the duration
        intervals (hence the memoized reliability floors) read straight off
        the precomputed arrays instead of recomputing them per solve.
        ``None`` when the subset is infeasible.
        """
        mask_r = np.zeros(len(self.tasks), dtype=bool)
        mask_r[np.fromiter(map(self._position.__getitem__, subset),
                           dtype=np.intp, count=len(subset))] = True
        if np.any(mask_r & ~self.reexec_ok) or np.any(~mask_r & ~self.single_ok):
            return None
        eff = np.where(mask_r, 2.0 * self.w, self.w)
        lower = np.where(mask_r, self.lo_r, self.lo_s)
        upper = np.where(mask_r, self.hi_r, self.hi_s)
        try:
            return allocate_durations_with_bounds(
                eff, self.problem.deadline, lower, upper, exponent=self.exponent)
        except ValueError:
            return None

    def evaluate(self, subset: frozenset[TaskId]) -> _Eval:
        """Exact restricted solve for one re-execution subset (memoized)."""
        cached = self._cache.get(subset)
        if cached is not None:
            return cached
        if self.ctx.is_single_processor:
            alloc = self._chain_allocation(subset)
            ev = (_Eval(False, math.inf) if alloc is None
                  else _Eval(True, float(alloc.energy)))
            self._cache[subset] = ev
            return ev
        return self.evaluate_many([subset])[0]

    def evaluate_many(self, subsets: list[frozenset[TaskId]]) -> list[_Eval]:
        """:meth:`evaluate` for each subset; on a multi-processor mapping the
        ones not yet cached are solved as one stack."""
        if not self.ctx.is_single_processor:
            missing = [s for s in dict.fromkeys(subsets) if s not in self._cache]
            for subset, row in zip(missing, solve_reexec_sets(self.problem, missing,
                                                              self.ctx)):
                self._cache[subset] = _Eval(row.feasible, row.energy, row)
        return [self.evaluate(s) for s in subsets]

    def result_for(self, subset: frozenset[TaskId], solver_name: str) -> SolveResult:
        """Full :class:`SolveResult` for a subset (built once, at the end)."""
        if self.ctx.is_single_processor:
            return solve_with_reexec_set(self.problem, subset,
                                         solver_name=solver_name,
                                         context=self.ctx)
        row = self.evaluate(subset).row
        assert row is not None
        return row.result(self.problem, solver_name)


def _exec_energy(eff: np.ndarray | float, d: np.ndarray | float,
                 a: float) -> np.ndarray | float:
    """Energy ``eff^a / d^(a-1)`` computed as ``eff * (eff/d)^(a-1)``.

    The naive numerator/denominator form produces ``0/0 = NaN`` for denormal
    weights (``w^a`` and ``d^(a-1)`` both underflow); ``eff/d`` is a *speed*
    inside ``[fmin, fmax]``, so this form cannot underflow into a NaN.
    """
    return eff * (eff / d) ** (a - 1.0)


def _build_instance(problem: TriCritProblem, ctx: SolverContext) -> _Instance:
    platform = problem.platform
    model = ctx.reliability
    fmax = platform.fmax
    a = platform.energy_model.exponent
    tasks = list(ctx.positive_tasks)
    n = len(tasks)
    w = np.array([problem.graph.weight(t) for t in tasks], dtype=float)
    proc_of = {}
    for p, assigned in enumerate(problem.mapping.as_lists()):
        for t in assigned:
            proc_of[t] = p
    proc = np.array([proc_of[t] for t in tasks], dtype=int) if n else np.zeros(0, int)
    s = np.full(n, max(model.frel, platform.fmin))
    fr = np.fromiter(ctx.reexecution_floors.values(), dtype=float, count=n)
    single_ok = s <= fmax * (1.0 + 1e-12)
    reexec_ok = fr <= fmax * (1.0 + 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi_s = np.where(single_ok, w / s, 0.0)
        hi_r = np.where(reexec_ok, 2.0 * w / fr, 0.0)
        # From the floor speeds themselves: tasks sharing both floors get
        # bit-identical prices, so the threshold order ties them by index.
        tau = _switch_prices(s, fr, a)
    return _Instance(
        problem=problem, ctx=ctx, tasks=tasks, w=w, proc=proc,
        lo_s=w / fmax, hi_s=hi_s,
        lo_r=2.0 * w / fmax, hi_r=hi_r,
        single_ok=single_ok, reexec_ok=reexec_ok, tau=tau, exponent=a,
    )


def _forced_sets(inst: _Instance) -> tuple[set[int], set[int]] | None:
    """(forced_in, forced_out) index sets, or ``None`` when plainly infeasible.

    *Out*: the dominance rule (cheapest re-execution no cheaper than the
    cheapest single execution), or a re-execution floor above ``fmax``.
    *In*: a single-execution floor above ``fmax`` (only the double run is
    reliable enough).  A task admitting neither option makes the whole
    instance infeasible.
    """
    a = inst.exponent
    forced_in: set[int] = set()
    forced_out: set[int] = set()
    for i in range(len(inst.tasks)):
        if not inst.single_ok[i] and not inst.reexec_ok[i]:
            return None
        if not inst.single_ok[i]:
            forced_in.add(i)
        elif not inst.reexec_ok[i]:
            forced_out.add(i)
        else:
            s_i = _exec_energy(inst.w[i], inst.hi_s[i], a)
            r_i = _exec_energy(2.0 * inst.w[i], inst.hi_r[i], a)
            # Dominance: 2 w f_r^{a-1} >= w s^{a-1}, in floor-energy form.
            if r_i >= s_i * (1.0 - 1e-12):
                forced_out.add(i)
    return forced_in, forced_out


# ----------------------------------------------------------------------
# Lagrangian dual bound
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _switch_ratio(a: float) -> float:
    """The root ``u`` in ``(0, 1)`` of ``1 + (a-1) u^a = 2 a u^(a-1)``.

    While the single run sits at its floor speed ``s`` and the re-execution
    runs at the free speed ``sigma``, the dual option values are
    ``v_s = w (s^(a-1) + lam / s)`` and ``v_r = 2 w a sigma^(a-1)`` with
    ``lam = (a-1) sigma^a``; they cross at ``sigma = u s``.  The left side
    minus the right falls strictly on ``(0, 1)`` from 1 to ``-a``, so the
    root is unique.  A float bisection runs until the bracket's ends are
    adjacent floats and returns the end with the smaller ``|f|``.
    """
    def f(u: float) -> float:
        return 1.0 + (a - 1.0) * u ** a - 2.0 * a * u ** (a - 1.0)

    lo, hi = 0.0, 1.0
    mid = 0.5
    while lo < mid < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo if abs(f(lo)) < abs(f(hi)) else hi


def _switch_prices(s: np.ndarray, fr: np.ndarray, a: float) -> np.ndarray:
    """Per-task multiplier at which the dual choice leaves re-execution.

    Re-execution doubles the duration at every price (``d_r >= 2 d_s``), so
    ``v_r - v_s`` never falls as ``lam`` grows and the dual picks the
    re-execution exactly below this price.  With ``s`` and ``f_r`` the two
    floor speeds the crossing is linear while both options sit at their
    floors (``lam <= (a-1) f_r^a``), and at ``sigma = u s``
    (:func:`_switch_ratio`) once only the single run does; with both free
    ``v_r = 2 v_s``, so the crossing always comes before ``sigma = s``.
    """
    linear = (s ** (a - 1.0) - 2.0 * fr ** (a - 1.0)) / (2.0 / fr - 1.0 / s)
    free = (a - 1.0) * (_switch_ratio(a) * s) ** a
    return np.where(linear <= (a - 1.0) * fr ** a, np.maximum(linear, 0.0),
                    free)


@dataclass
class _DualTable:
    """One processor's dual-bound constants, read by every node's bound.

    Each of the processor's ``n`` tasks has four columns, one per option
    code ``2 allow_s + allow_r``: closed (0), *In* (1, re-execution only),
    *Out* (2, single only) and undecided (3, the dual's choice:
    re-execution below the task's switch price).  Block ``c`` holds code
    ``c``, so a node's codes select columns ``c n + j``.  ``rows`` holds
    the minimum duration (``inf`` for a closed task), the ``lam = 0``
    energy and duration, and the clipped duration at each of the ``K``
    breakpoints ``bp``; ``pick0`` is the ``lam = 0`` choice.  A closed
    option's duration cap is never read, so the table uses the open
    option's cap throughout.  :meth:`midpoint` adds, per interval, the
    durations clipped at the interval's midpoint and the effective weight
    of the free ones, built on first use.
    """

    w: np.ndarray
    lo_s: np.ndarray
    hi_s: np.ndarray
    lo_r: np.ndarray
    hi_r: np.ndarray
    tau: np.ndarray
    bp: np.ndarray
    mids: np.ndarray  # geometric midpoint of (bp[k-1], bp[k]); bp[0] / 2 first
    rows: np.ndarray  # (3 + K, 4 n)
    pick0: np.ndarray  # (4 n,)
    exponent: float

    def __post_init__(self) -> None:
        self._offsets = np.arange(self.w.size)
        self._mid: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def columns(self, code: np.ndarray) -> np.ndarray:
        return code * self.w.size + self._offsets

    def midpoint(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Clipped durations (0 where free) and free effective weights
        (0 where clipped) at interval ``k``'s midpoint, per column."""
        row = self._mid.get(k)
        if row is None:
            a, w = self.exponent, self.w
            scale = ((a - 1.0) / self.mids[k:k + 1]) ** (1.0 / a)
            raw_s, raw_r = w * scale, 2.0 * w * scale
            free_s = (self.lo_s < raw_s) & (raw_s < self.hi_s)
            free_r = (self.lo_r < raw_r) & (raw_r < self.hi_r)
            clip_s = np.where(free_s, 0.0, np.clip(raw_s, self.lo_s, self.hi_s))
            clip_r = np.where(free_r, 0.0, np.clip(raw_r, self.lo_r, self.hi_r))
            eff_s = np.where(free_s, w, 0.0)
            eff_r = np.where(free_r, 2.0 * w, 0.0)
            reexec = self.mids[k] < self.tau
            zero = np.zeros(w.size)
            row = self._mid[k] = (
                np.concatenate([zero, clip_r, clip_s,
                                np.where(reexec, clip_r, clip_s)]),
                np.concatenate([zero, eff_r, eff_s,
                                np.where(reexec, eff_r, eff_s)]))
        return row


def _dual_table(inst: _Instance, idx: np.ndarray, bp: np.ndarray) -> _DualTable:
    """Build the :class:`_DualTable` of the tasks ``idx`` on one processor."""
    a = inst.exponent
    w = inst.w[idx]
    lo_s, hi_s = inst.lo_s[idx], inst.hi_s[idx]
    lo_r, hi_r = inst.lo_r[idx], inst.hi_r[idx]
    tau = inst._dual_tau[idx]
    n = idx.size
    with np.errstate(divide="ignore", invalid="ignore"):
        e_s = _exec_energy(w, hi_s, a)
        e_r = _exec_energy(2.0 * w, hi_r, a)
    reexec0 = e_r < e_s
    rows = np.empty((3 + bp.size, 4 * n))
    rows[0] = np.concatenate([np.full(n, math.inf), lo_r, lo_s, lo_s])
    rows[1] = np.concatenate([np.zeros(n), e_r, e_s,
                              np.where(reexec0, e_r, e_s)])
    rows[2] = np.concatenate([np.zeros(n), hi_r, hi_s,
                              np.where(reexec0, hi_r, hi_s)])
    # The breakpoint rows, filled in place block by block: a table holds
    # (3 + K) x 4n floats with K up to 5n, and each temporary of that size
    # costs page faults.
    scale = (((a - 1.0) / bp) ** (1.0 / a))[:, None]
    closed, d_r, d_s, und = np.moveaxis(rows[3:].reshape(bp.size, 4, n), 1, 0)
    closed[...] = 0.0
    np.clip(np.multiply(2.0 * w, scale, out=d_r), lo_r, hi_r, out=d_r)
    np.clip(np.multiply(w, scale, out=d_s), lo_s, hi_s, out=d_s)
    np.copyto(und, d_s)
    np.copyto(und, d_r, where=bp[:, None] < tau)
    left = np.concatenate([[0.0], bp[:-1]])
    mids = np.where(left > 0.0, np.sqrt(left * bp), 0.5 * bp)
    pick0 = np.concatenate([np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                            np.zeros(n, dtype=bool), reexec0])
    return _DualTable(w=w, lo_s=lo_s, hi_s=hi_s, lo_r=lo_r, hi_r=hi_r, tau=tau,
                      bp=bp, mids=mids, rows=rows, pick0=pick0, exponent=a)


def _dual_bound(inst: _Instance, allow_s: np.ndarray, allow_r: np.ndarray,
                ) -> tuple[float, np.ndarray, bool]:
    """Best dual lower bound for a partial assignment.

    ``allow_s`` / ``allow_r`` mark the options still open per task (an *In*
    task allows re-execution only, an *Out* task single only, an undecided
    task both).  Returns ``(bound, pick_reexec, exact)`` where
    ``pick_reexec`` is the dual completion suggestion and ``exact`` means the
    bound is attained by a primal-feasible schedule (the ``lam = 0`` loose
    path held on every processor).

    The bound is a sum of per-processor duals, and branching on one task
    changes one processor's: each processor's ``(bound, pick, exact)`` is
    memoised on the instance, keyed by its tasks' option codes
    ``2 allow_s + allow_r``.  A miss is answered by :func:`_processor_dual`
    from the processor's :class:`_DualTable`.
    """
    inst.bound_evaluations += 1
    code = 2 * allow_s + allow_r
    total = 0.0
    pick = np.zeros(len(inst.tasks), dtype=bool)
    exact = True
    for p, idx in enumerate(inst._proc_index):
        if idx.size == 0:
            continue
        code_p = code[idx]
        key = (p, code_p.tobytes())
        dual = inst._dual_memo.get(key)
        if dual is None:
            dual = inst._dual_memo[key] = _processor_dual(inst, p, code_p)
        bound, choose, loose = dual
        if choose is None:
            return math.inf, pick, False
        total += bound
        pick[idx] = choose
        exact = exact and loose
    return total, pick, exact


def _processor_dual(inst: _Instance, p: int, code: np.ndarray,
                    ) -> tuple[float, np.ndarray | None, bool]:
    """One processor's maximised dual: ``(bound, pick, loose)``.

    ``pick`` is ``None`` when the node is infeasible on this processor.
    The node's option codes select one column per task of the processor's
    table, so one gather and one row sum give the minimum duration, the
    ``lam = 0`` energy and duration, and the supergradient
    ``sum_i d_i(lam) - D`` at every breakpoint.  Selecting columns, rather
    than multiplying by a 0/1 mask, adds the same numbers in the same
    order as a per-task evaluation would, so the bound and the tie-breaks
    it feeds do not depend on the table.  Between breakpoints the
    supergradient is ``A + B lam^(-1/a)``; with the first breakpoint at
    which it is no longer positive, the bracketing interval's midpoint row
    gives ``A - D`` and ``B`` and the root ``lam = (a-1) (B / (D - A))^a``,
    and when the supergradient jumps over zero the breakpoint itself is
    the maximiser.  Any ``lam`` yields a valid bound, so rounding here
    costs tightness only.  The returned bound and pick both come from one
    evaluation of ``L`` at the chosen ``lam`` (:func:`_lagrangian`): a
    maximiser often sits exactly on a switch price.
    """
    tab = inst._dual_tables[p]
    if tab is None:
        tab = inst._dual_tables[p] = _dual_table(inst, inst._proc_index[p],
                                                 inst._breakpoints[p])
    D = inst.problem.deadline
    a = inst.exponent
    cols = tab.columns(code)
    sums = tab.rows.take(cols, axis=1).sum(axis=1)
    if float(sums[0]) > D * (1.0 + 1e-12):
        return math.inf, None, False
    val = float(sums[1])
    choose = tab.pick0.take(cols)
    if float(sums[2]) - D <= 1e-12 * max(1.0, D):
        # Loose deadline: the dual choice at maximal durations fits, so
        # the relaxation optimum is primal-achievable -- exact bound.
        return val, choose, True

    bp = tab.bp
    crossed = np.flatnonzero(sums[3:] <= D)
    if crossed.size == 0:
        # Every duration at its minimum still overruns D by less than the
        # feasibility tolerance: the last breakpoint is as good as any.
        # (No breakpoint at all takes weights whose durations underflow.)
        lam = float(bp[-1]) if bp.size else 0.0
    else:
        k = int(crossed[0])
        right = float(bp[k])
        left = float(bp[k - 1]) if k else 0.0
        clipped_row, free_row = tab.midpoint(k)
        clipped = float(np.sum(clipped_row.take(cols)))
        free = free_row.take(cols)
        # Only the free weights, as the per-task form sums them: pairwise
        # summation groups terms by position, so the zeros would move it.
        free_eff = float(np.sum(free[free > 0.0]))
        lam = right
        if free_eff > 0.0 and clipped < D:
            lam = min(max((a - 1.0) * (free_eff / (D - clipped)) ** a,
                          left), right)
    best, best_choose = _lagrangian(tab, code, lam, D)
    if val > best:
        best, best_choose = val, choose
    return best, best_choose, False


def _lagrangian(tab: _DualTable, code: np.ndarray, lam: float, D: float,
                ) -> tuple[float, np.ndarray]:
    """``L(lam)`` on one processor and each task's choice there."""
    a = tab.exponent
    a_s, a_r = code > 1, code % 2 == 1
    w = tab.w
    if lam <= 0.0:
        d_s, d_r = tab.hi_s, tab.hi_r
    else:
        # np.clip's bits, without its Python-level dispatch.
        scale = ((a - 1.0) / lam) ** (1.0 / a)
        d_s = np.minimum(np.maximum(w * scale, tab.lo_s), tab.hi_s)
        d_r = np.minimum(np.maximum(2.0 * w * scale, tab.lo_r), tab.hi_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_s = np.where(a_s, _exec_energy(w, d_s, a) + lam * d_s, math.inf)
        v_r = np.where(a_r, _exec_energy(2.0 * w, d_r, a) + lam * d_r,
                       math.inf)
    choose_r = v_r < v_s
    return float(np.sum(np.where(choose_r, v_r, v_s))) - lam * D, choose_r


def _threshold_incumbent(inst: _Instance, forced_in: set[int], free: list[int],
                         ) -> tuple[float, frozenset[TaskId]] | None:
    """Best feasible subset over the dual-threshold prefix family.

    Orders the free tasks by decreasing switch price -- the multiplier at
    which their re-execution stops paying (:func:`_switch_prices`) -- and
    evaluates the prefix subsets on a coarse-then-refined grid of prefix
    lengths: the optimum is usually close to a threshold set in this
    ordering, so this lands a near-optimal incumbent with ``O(log n)``-ish
    restricted solves.  Each grid is one :meth:`_Instance.evaluate_many`
    call.
    """
    base = frozenset(inst.tasks[i] for i in forced_in)
    if not free:
        ev = inst.evaluate(base)
        return (ev.energy, base) if ev.feasible else None
    taus = inst.tau[np.asarray(free, dtype=int)]
    order = [i for _, i in sorted(zip(-taus, free))]
    m = len(order)

    def prefix(k: int) -> frozenset[TaskId]:
        return base | frozenset(inst.tasks[i] for i in order[:k])

    def sweep(ks: list[int]) -> None:
        evals.update(zip(ks, inst.evaluate_many([prefix(k) for k in ks])))

    step = max(1, m // 24)
    evals: dict[int, _Eval] = {}
    sweep(sorted({*range(0, m + 1, step), m}))
    feasible_ks = [k for k, ev in evals.items() if ev.feasible]
    if feasible_ks:
        best_k = min(feasible_ks, key=lambda k: evals[k].energy)
        sweep([k for k in range(max(0, best_k - step), min(m, best_k + step) + 1)
               if k not in evals])
    best: tuple[float, frozenset[TaskId]] | None = None
    for k, ev in evals.items():
        if ev.feasible and (best is None or ev.energy < best[0]):
            best = (ev.energy, prefix(k))
    return best


# ----------------------------------------------------------------------
# chain weight-class DP
# ----------------------------------------------------------------------
def _class_dp(inst: _Instance, forced_in: set[int], free: list[int], budget: int,
              ) -> tuple[tuple[float, frozenset[TaskId]] | None, int] | None:
    """Exact scan over weight-class count vectors, or ``None`` if over budget.

    Sound on a single processor only: there the restricted allocation energy
    depends on the multiset of (effective weight, floor) pairs, never on
    *which* equal-weight task re-executes.
    """
    classes: dict[float, list[int]] = {}
    for i in free:
        classes.setdefault(float(inst.w[i]), []).append(i)
    members = list(classes.values())
    combos = 1
    for group in members:
        combos *= len(group) + 1
        if combos > budget:
            return None
    base = frozenset(inst.tasks[i] for i in forced_in)
    vectors = sorted(itertools.product(*[range(len(g) + 1) for g in members]),
                     key=sum)
    best: tuple[float, frozenset[TaskId]] | None = None
    for counts in vectors:
        chosen = set(base)
        for group, k in zip(members, counts):
            chosen.update(inst.tasks[i] for i in group[:k])
        subset = frozenset(chosen)
        ev = inst.evaluate(subset)
        if ev.feasible and (best is None or ev.energy < best[0]):
            best = (ev.energy, subset)
    return best, len(vectors)


# ----------------------------------------------------------------------
# branch-and-bound core
# ----------------------------------------------------------------------
def _search(problem: TriCritProblem, *, exact_mode: bool, max_tasks: int | None,
            gap_target: float, node_budget: int | None, class_budget: int) -> SolveResult:
    ctx = SolverContext.for_problem(problem)
    solver_name = "tricrit-pruned" if exact_mode else "tricrit-pruned-gap"
    n = ctx.num_positive_tasks
    if max_tasks is not None and n > max_tasks:
        raise ValueError(
            f"pruned exact solver limited to {max_tasks} tasks (got {n}); "
            "use tricrit-pruned-gap for a certified bound beyond the limit")

    def infeasible(extra: dict[str, Any] | None = None) -> SolveResult:
        meta = {"nodes": 0, "lower_bound": math.inf, "optimality_gap": 0.0,
                "strategy": "infeasibility-check",
                "mode": "exact" if exact_mode else "gap"}
        meta.update(extra or {})
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver_name, metadata=meta)

    if not ctx.is_feasible:
        return infeasible()

    inst = _build_instance(problem, ctx)
    forced = _forced_sets(inst)
    if forced is None:
        return infeasible()
    forced_in, forced_out = forced
    free = [i for i in range(n) if i not in forced_in and i not in forced_out]
    # Branch on the floor-energy gain of re-executing first: large gains are
    # the decisions that move the bound the most, so they split early.
    a = inst.exponent
    gain = {i: (_exec_energy(inst.w[i], inst.hi_s[i], a)
                - _exec_energy(2.0 * inst.w[i], inst.hi_r[i], a)) for i in free}
    free.sort(key=lambda i: gain[i], reverse=True)

    def finish(subset: frozenset[TaskId], energy: float, *, bound: float, nodes: int,
               strategy: str, extra: dict[str, Any] | None = None) -> SolveResult:
        result = inst.result_for(subset, solver_name)
        inc = energy
        gap = 0.0 if inc <= 0 else max(0.0, (inc - bound) / inc)
        if not math.isfinite(bound):
            gap = 0.0
        result.solver = solver_name
        result.status = "optimal" if (exact_mode or gap <= _REL_TOL) else "feasible"
        result.metadata.update({
            "nodes": nodes,
            "lower_bound": min(bound, inc),
            "optimality_gap": gap if not exact_mode else 0.0,
            "subsets_evaluated": inst.evaluations,
            "bound_evaluations": inst.bound_evaluations,
            "strategy": strategy,
            "mode": "exact" if exact_mode else "gap",
            "forced_out": len(forced_out),
            "forced_in": len(forced_in),
        })
        result.metadata.update(extra or {})
        return result

    def completion_subset(pick: np.ndarray) -> frozenset[TaskId]:
        # The dual picks every In task's re-execution (its single run is
        # closed) and no Out task's, so its picks are the whole completion.
        return frozenset(inst.tasks[i] for i in np.flatnonzero(pick))

    # Root bound -- also the loose-deadline O(n) fast path.
    root_s = inst.single_ok.copy()
    root_r = inst.reexec_ok.copy()
    root_s[sorted(forced_in)] = False
    root_r[sorted(forced_out)] = False
    root_bound, root_pick, root_exact = _dual_bound(inst, root_s, root_r)
    if not math.isfinite(root_bound):
        return infeasible({"strategy": "dual-bound"})
    root_subset = completion_subset(root_pick)
    incumbent = inst.evaluate(root_subset)
    # The lam = 0 dual choice fills each processor within the deadline, but
    # only on a single processor is that sufficient for schedule feasibility
    # (cross-processor precedence paths can still overrun); so "exact" is
    # only declared when the evaluated completion actually attains the bound.
    if root_exact and incumbent.feasible and \
            incumbent.energy <= root_bound * (1.0 + 1e-9) + 1e-12:
        return finish(root_subset, incumbent.energy, bound=root_bound, nodes=1,
                      strategy="dual-exact")

    # Chain weight-class DP: exact, and often far below the tree's cost.
    if exact_mode and ctx.is_single_processor:
        dp = _class_dp(inst, forced_in, free, class_budget)
        if dp is not None:
            best, vectors = dp
            if best is None:
                return infeasible({"strategy": "class-dp",
                                   "count_vectors": vectors})
            return finish(best[1], best[0], bound=best[0], nodes=0,
                          strategy="class-dp", extra={"count_vectors": vectors})

    # Strong starting incumbent: the dual-threshold prefix family.
    inc_energy, inc_subset = (incumbent.energy, root_subset) \
        if incumbent.feasible else (math.inf, None)
    swept = _threshold_incumbent(inst, forced_in, free)
    if swept is not None and swept[0] < inc_energy:
        inc_energy, inc_subset = swept

    # Best-first branch-and-bound on the free tasks.
    counter = itertools.count()
    # A node carries its option masks; a child copies the one it changes.
    heap = [(root_bound, 0, next(counter), root_s, root_r)]
    nodes = 1

    def gap_of(bound: float) -> float:
        if inc_subset is None or inc_energy <= 0:
            return math.inf
        return max(0.0, (inc_energy - min(bound, inc_energy)) / inc_energy)

    while heap:
        bound = heap[0][0]
        if bound >= inc_energy - _REL_TOL * max(1.0, inc_energy):
            heap = []
            break
        if not exact_mode:
            if gap_of(bound) <= gap_target:
                break
            if node_budget is not None and nodes >= node_budget:
                break
        lb, depth, _, allow_s, allow_r = heapq.heappop(heap)
        if lb >= inc_energy - _REL_TOL * max(1.0, inc_energy):
            continue
        if depth >= len(free):
            # Fully decided: the bound is the restricted (convex) optimum,
            # and the completion evaluated at node creation was the subset
            # itself, so the incumbent already accounts for it.
            continue
        branch_task = free[depth]
        for add_to_in in (True, False):
            child_s, child_r = allow_s, allow_r
            if add_to_in:
                child_s = allow_s.copy()
                child_s[branch_task] = False
            else:
                child_r = allow_r.copy()
                child_r[branch_task] = False
            child_bound, pick, child_exact = _dual_bound(inst, child_s, child_r)
            nodes += 1
            if not math.isfinite(child_bound):
                continue
            if child_bound >= inc_energy - _REL_TOL * max(1.0, inc_energy):
                continue
            child_subset = completion_subset(pick)
            candidate = inst.evaluate(child_subset)
            if candidate.feasible and candidate.energy < inc_energy:
                inc_energy, inc_subset = candidate.energy, child_subset
            if child_exact and candidate.feasible and \
                    candidate.energy <= child_bound * (1.0 + 1e-9) + 1e-12:
                continue  # bound attained by its own completion; subtree closed
            heapq.heappush(heap, (child_bound, depth + 1, next(counter),
                                  child_s, child_r))

    if inc_subset is None:
        return infeasible({"strategy": "branch-and-bound", "nodes": nodes})
    outstanding = min((entry[0] for entry in heap), default=inc_energy)
    return finish(inc_subset, inc_energy, bound=outstanding, nodes=nodes,
                  strategy="branch-and-bound")


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def solve_tricrit_pruned(problem: TriCritProblem, *,
                         max_tasks: int = PRUNED_EXACT_MAX_TASKS,
                         class_budget: int = PRUNED_CLASS_ENUM_BUDGET) -> SolveResult:
    """Exact TRI-CRIT CONTINUOUS optimum by pruned branch-and-bound.

    Explores the re-execution subset space best-first under the Lagrangian
    dual bound, with dominance-forced decisions and the single-processor
    weight-class DP shortcut; runs to proven optimality (``status
    "optimal"``, ``optimality_gap`` 0).  ``max_tasks`` bounds the number of
    positive-weight tasks and defaults to the registry's advertised
    :data:`~repro.solvers.limits.PRUNED_EXACT_MAX_TASKS`.
    """
    return _search(problem, exact_mode=True, max_tasks=max_tasks,
                   gap_target=0.0, node_budget=None, class_budget=class_budget)


def solve_tricrit_pruned_gap(problem: TriCritProblem, *,
                             gap_target: float = 0.05,
                             node_budget: int = PRUNED_GAP_NODE_BUDGET) -> SolveResult:
    """Anytime gap-certified TRI-CRIT search (no size limit).

    Same search as :func:`solve_tricrit_pruned` but stops once the certified
    relative gap falls to ``gap_target`` or ``node_budget`` nodes have been
    bounded.  ``metadata["optimality_gap"]`` is the proven gap between the
    returned (feasible) incumbent and the best outstanding lower bound; the
    status is ``"optimal"`` when the gap closed to numerical zero and
    ``"feasible"`` otherwise.
    """
    return _search(problem, exact_mode=False, max_tasks=None,
                   gap_target=gap_target, node_budget=node_budget, class_budget=0)

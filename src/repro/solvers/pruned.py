"""Pruned exact TRI-CRIT search: branch-and-bound over re-execution subsets.

The blind enumerators (:func:`repro.continuous.exhaustive.solve_tricrit_exhaustive`
and :func:`repro.continuous.tricrit_chain.solve_tricrit_chain_exact`) hit the
``2^n`` wall around 14-22 positive-weight tasks.  This module searches the
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
   on every completion of the partial assignment; ``L`` is concave with
   supergradient ``sum_i d_i(lam) - D``, so a doubling-then-bisection scan
   maximises it.  Tasks mapped to the same processor serialise within the
   makespan, so the bound decomposes as a sum of per-processor duals.  When
   ``lam = 0`` already satisfies the deadline (loose-deadline instances)
   the dual choice is primal-feasible and the bound is *exact* -- an
   ``O(n)`` fast path that closes the node immediately.
3. **Weight-class DP.**  On a single processor the restricted allocation
   depends only on the *multiset* of (effective weight, floor) pairs, so
   equal-weight tasks are interchangeable: enumerating re-execution *count
   vectors* (one count per weight class) covers all ``2^n`` subsets with
   ``prod_w (count_w + 1)`` representative solves.  When that product fits
   :data:`~repro.solvers.limits.PRUNED_CLASS_ENUM_BUDGET` the search is a
   direct DP scan instead of a tree.

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

import numpy as np

from ..core.problems import SolveResult, TriCritProblem
from ..optimize.allocation import allocate_durations_with_bounds
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
    result: SolveResult | None = None  # kept only on the multi-processor path


@dataclass
class _Instance:
    """Flat per-positive-task arrays plus the memoized subset evaluator."""

    problem: TriCritProblem
    ctx: SolverContext
    tasks: list  # positive-weight TaskIds, topological order
    w: np.ndarray  # weights
    proc: np.ndarray  # processor index per task
    lo_s: np.ndarray  # single-execution duration interval [lo_s, hi_s]
    hi_s: np.ndarray
    lo_r: np.ndarray  # re-execution duration interval [lo_r, hi_r]
    hi_r: np.ndarray
    single_ok: np.ndarray
    reexec_ok: np.ndarray
    exponent: float
    method: str

    def __post_init__(self) -> None:
        self._cache: dict[frozenset, _Eval] = {}
        self._proc_index = [np.flatnonzero(self.proc == p)
                            for p in range(int(self.proc.max()) + 1
                                           if self.proc.size else 0)]

    @property
    def evaluations(self) -> int:
        return len(self._cache)

    def _chain_allocation(self, subset: frozenset):
        """Restricted allocation on a single processor, from the flat arrays.

        All positive tasks serialise within the deadline, so the restricted
        problem is exactly the bounded water-filling -- with the duration
        intervals (hence the memoized reliability floors) read straight off
        the precomputed arrays instead of re-bisecting them per solve.
        """
        mask_r = np.fromiter((t in subset for t in self.tasks), dtype=bool,
                             count=len(self.tasks))
        if np.any(mask_r & ~self.reexec_ok) or np.any(~mask_r & ~self.single_ok):
            return None, None
        eff = np.where(mask_r, 2.0 * self.w, self.w)
        lower = np.where(mask_r, self.lo_r, self.lo_s)
        upper = np.where(mask_r, self.hi_r, self.hi_s)
        try:
            alloc = allocate_durations_with_bounds(
                eff, self.problem.deadline, lower, upper, exponent=self.exponent)
        except ValueError:
            return None, None
        return alloc, eff

    def evaluate(self, subset: frozenset) -> _Eval:
        """Exact restricted solve for one re-execution subset (memoized)."""
        cached = self._cache.get(subset)
        if cached is not None:
            return cached
        if self.ctx.is_single_processor:
            alloc, _ = self._chain_allocation(subset)
            ev = (_Eval(False, math.inf) if alloc is None
                  else _Eval(True, float(alloc.energy)))
        else:
            from ..continuous.heuristics import solve_with_reexec_set

            result = solve_with_reexec_set(self.problem, subset,
                                           method=self.method,
                                           solver_name="tricrit-pruned",
                                           context=self.ctx)
            ev = _Eval(result.feasible, result.energy, result)
        self._cache[subset] = ev
        return ev

    def result_for(self, subset: frozenset, solver_name: str) -> SolveResult:
        """Full :class:`SolveResult` for a subset (built once, at the end)."""
        if not self.ctx.is_single_processor:
            ev = self.evaluate(subset)
            assert ev.result is not None
            return ev.result
        from ..continuous.tricrit_chain import (
            ChainTriCritSolution,
            _to_solve_result,
        )

        alloc, eff = self._chain_allocation(subset)
        if alloc is None:
            sol = ChainTriCritSolution(math.inf, {}, {}, subset, False)
        else:
            speeds = {t: float(eff[i] / alloc.durations[i])
                      for i, t in enumerate(self.tasks)}
            durations = {t: float(alloc.durations[i])
                         for i, t in enumerate(self.tasks)}
            sol = ChainTriCritSolution(float(alloc.energy), speeds, durations,
                                       frozenset(subset), True)
        return _to_solve_result(self.problem, sol, solver_name)


def _exec_energy(eff, d, a):
    """Energy ``eff^a / d^(a-1)`` computed as ``eff * (eff/d)^(a-1)``.

    The naive numerator/denominator form produces ``0/0 = NaN`` for denormal
    weights (``w^a`` and ``d^(a-1)`` both underflow); ``eff/d`` is a *speed*
    inside ``[fmin, fmax]``, so this form cannot underflow into a NaN.
    """
    return eff * (eff / d) ** (a - 1.0)


def _build_instance(problem: TriCritProblem, ctx: SolverContext,
                    method: str) -> _Instance:
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
    fr = np.array([ctx.reexecution_floor(t) for t in tasks]) if n else np.zeros(0)
    single_ok = s <= fmax * (1.0 + 1e-12)
    reexec_ok = fr <= fmax * (1.0 + 1e-12)
    with np.errstate(divide="ignore"):
        hi_s = np.where(single_ok, w / s, 0.0)
        hi_r = np.where(reexec_ok, 2.0 * w / fr, 0.0)
    return _Instance(
        problem=problem, ctx=ctx, tasks=tasks, w=w, proc=proc,
        lo_s=w / fmax, hi_s=hi_s,
        lo_r=2.0 * w / fmax, hi_r=hi_r,
        single_ok=single_ok, reexec_ok=reexec_ok, exponent=a, method=method,
    )


def _forced_sets(inst: _Instance) -> tuple[set, set] | None:
    """(forced_in, forced_out) index sets, or ``None`` when plainly infeasible.

    *Out*: the dominance rule (cheapest re-execution no cheaper than the
    cheapest single execution), or a re-execution floor above ``fmax``.
    *In*: a single-execution floor above ``fmax`` (only the double run is
    reliable enough).  A task admitting neither option makes the whole
    instance infeasible.
    """
    a = inst.exponent
    forced_in, forced_out = set(), set()
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
def _dual_bound(inst: _Instance, allow_s: np.ndarray, allow_r: np.ndarray,
                ) -> tuple[float, np.ndarray, bool]:
    """Best dual lower bound for a partial assignment.

    ``allow_s`` / ``allow_r`` mark the options still open per task (an *In*
    task allows re-execution only, an *Out* task single only, an undecided
    task both).  Returns ``(bound, pick_reexec, exact)`` where
    ``pick_reexec`` is the dual completion suggestion and ``exact`` means the
    bound is attained by a primal-feasible schedule (the ``lam = 0`` loose
    path held on every processor).
    """
    D = inst.problem.deadline
    a = inst.exponent
    total = 0.0
    pick = np.zeros(len(inst.tasks), dtype=bool)
    exact = True
    for idx in inst._proc_index:
        if idx.size == 0:
            continue
        a_s, a_r = allow_s[idx], allow_r[idx]
        if np.any(~a_s & ~a_r):
            return math.inf, pick, False
        lo_s, hi_s = inst.lo_s[idx], inst.hi_s[idx]
        lo_r, hi_r = inst.lo_r[idx], inst.hi_r[idx]
        w = inst.w[idx]
        min_lo = np.where(a_s, lo_s, lo_r)
        if float(np.sum(min_lo)) > D * (1.0 + 1e-12):
            return math.inf, pick, False
        cap_s = np.where(a_s, hi_s, lo_s)
        cap_r = np.where(a_r, hi_r, lo_r)

        def L(lam):
            if lam <= 0.0:
                d_s, d_r = hi_s, hi_r
            else:
                scale = ((a - 1.0) / lam) ** (1.0 / a)
                d_s = np.clip(w * scale, lo_s, cap_s)
                d_r = np.clip(2.0 * w * scale, lo_r, cap_r)
            with np.errstate(divide="ignore", invalid="ignore"):
                v_s = np.where(a_s, _exec_energy(w, d_s, a) + lam * d_s,
                               math.inf)
                v_r = np.where(a_r, _exec_energy(2.0 * w, d_r, a) + lam * d_r,
                               math.inf)
            choose_r = v_r < v_s
            phi = np.where(choose_r, v_r, v_s)
            d = np.where(choose_r, d_r, d_s)
            return float(np.sum(phi)) - lam * D, float(np.sum(d)) - D, choose_r

        val, g, choose = L(0.0)
        if g <= 1e-12 * max(1.0, D):
            # Loose deadline: the dual choice at maximal durations fits, so
            # the relaxation optimum is primal-achievable -- exact bound.
            total += val
            pick[idx] = choose
            continue
        exact = False
        best, best_choose = val, choose
        lam_lo = 0.0
        lam_hi = max(1.0, (a - 1.0) * float(np.max(w)) ** a
                     / max(float(np.min(min_lo[min_lo > 0], initial=1.0)),
                           1e-12) ** a)
        val, g, choose = L(lam_hi)
        if val > best:
            best, best_choose = val, choose
        while g > 0.0 and lam_hi < 1e30:
            lam_lo, lam_hi = lam_hi, lam_hi * 8.0
            val, g, choose = L(lam_hi)
            if val > best:
                best, best_choose = val, choose
        for _ in range(40):
            lam_mid = 0.5 * (lam_lo + lam_hi)
            val, g, choose = L(lam_mid)
            if val > best:
                best, best_choose = val, choose
            if g > 0.0:
                lam_lo = lam_mid
            else:
                lam_hi = lam_mid
        total += best
        pick[idx] = best_choose
    return total, pick, exact


def _threshold_taus(inst: _Instance, idx: np.ndarray) -> np.ndarray:
    """Per-task multiplier at which re-execution stops paying.

    For each task, the dual option values ``v_r(lam)`` and ``v_s(lam)`` cross
    as the deadline price ``lam`` grows (re-execution doubles the minimum
    duration, so a high price always favours the single run); the crossing
    point orders the tasks by how much slack they need before their
    re-execution becomes worthwhile.  Vectorized bisection, heuristic use
    only (incumbent generation), so an approximate crossing is fine.
    """
    a = inst.exponent
    w = inst.w[idx]
    lo_s, hi_s = inst.lo_s[idx], inst.hi_s[idx]
    lo_r, hi_r = inst.lo_r[idx], inst.hi_r[idx]

    def h(lam):
        lam = np.maximum(lam, 1e-300)
        scale = ((a - 1.0) / lam) ** (1.0 / a)
        d_s = np.clip(w * scale, lo_s, hi_s)
        d_r = np.clip(2.0 * w * scale, lo_r, hi_r)
        v_s = _exec_energy(w, d_s, a) + lam * d_s
        v_r = _exec_energy(2.0 * w, d_r, a) + lam * d_r
        return v_r - v_s

    hi = np.ones(idx.size)
    for _ in range(120):
        pending = h(hi) < 0.0
        if not pending.any():
            break
        hi[pending] *= 4.0
    lo = np.zeros(idx.size)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = h(mid) < 0.0
        lo[below] = mid[below]
        hi[~below] = mid[~below]
    return 0.5 * (lo + hi)


def _threshold_incumbent(inst: _Instance, forced_in: set,
                         free: list) -> tuple[float, frozenset] | None:
    """Best feasible subset over the dual-threshold prefix family.

    Orders the free tasks by decreasing crossing threshold and evaluates the
    prefix subsets on a coarse-then-refined grid of prefix lengths: the
    optimum is usually close to a threshold set in this ordering, so this
    lands a near-optimal incumbent with ``O(log n)``-ish restricted solves.
    """
    base = frozenset(inst.tasks[i] for i in forced_in)
    if not free:
        ev = inst.evaluate(base)
        return (ev.energy, base) if ev.feasible else None
    taus = _threshold_taus(inst, np.asarray(free, dtype=int))
    order = [i for _, i in sorted(zip(-taus, free))]
    m = len(order)

    def prefix(k: int) -> frozenset:
        return base | frozenset(inst.tasks[i] for i in order[:k])

    step = max(1, m // 24)
    evals = {k: inst.evaluate(prefix(k))
             for k in sorted({*range(0, m + 1, step), m})}
    feasible_ks = [k for k, ev in evals.items() if ev.feasible]
    if feasible_ks:
        best_k = min(feasible_ks, key=lambda k: evals[k].energy)
        for k in range(max(0, best_k - step), min(m, best_k + step) + 1):
            if k not in evals:
                evals[k] = inst.evaluate(prefix(k))
    best: tuple[float, frozenset] | None = None
    for k, ev in evals.items():
        if ev.feasible and (best is None or ev.energy < best[0]):
            best = (ev.energy, prefix(k))
    return best


# ----------------------------------------------------------------------
# chain weight-class DP
# ----------------------------------------------------------------------
def _class_dp(inst: _Instance, forced_in: set, free: list,
              budget: int) -> tuple[tuple[float, frozenset] | None, int] | None:
    """Exact scan over weight-class count vectors, or ``None`` if over budget.

    Sound on a single processor only: there the restricted allocation energy
    depends on the multiset of (effective weight, floor) pairs, never on
    *which* equal-weight task re-executes.
    """
    classes: dict[float, list] = {}
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
    best: tuple[float, frozenset] | None = None
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
            gap_target: float, node_budget: int | None, method: str,
            class_budget: int) -> SolveResult:
    ctx = SolverContext.for_problem(problem)
    solver_name = "tricrit-pruned" if exact_mode else "tricrit-pruned-gap"
    n = ctx.num_positive_tasks
    if max_tasks is not None and n > max_tasks:
        raise ValueError(
            f"pruned exact solver limited to {max_tasks} tasks (got {n}); "
            "use tricrit-pruned-gap for a certified bound beyond the limit")

    def infeasible(extra: dict | None = None) -> SolveResult:
        meta = {"nodes": 0, "lower_bound": math.inf, "optimality_gap": 0.0,
                "strategy": "infeasibility-check",
                "mode": "exact" if exact_mode else "gap"}
        meta.update(extra or {})
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver_name, metadata=meta)

    if not ctx.is_feasible:
        return infeasible()

    inst = _build_instance(problem, ctx, method)
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

    def finish(subset: frozenset, energy: float, *, bound: float, nodes: int,
               strategy: str, extra: dict | None = None) -> SolveResult:
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
            "strategy": strategy,
            "mode": "exact" if exact_mode else "gap",
            "forced_out": len(forced_out),
            "forced_in": len(forced_in),
        })
        result.metadata.update(extra or {})
        return result

    states_in = frozenset(forced_in)
    states_out = frozenset(forced_out)

    def masks(in_set: frozenset, out_set: frozenset) -> tuple[np.ndarray, np.ndarray]:
        allow_s = inst.single_ok.copy()
        allow_r = inst.reexec_ok.copy()
        for i in in_set:
            allow_s[i] = False
        for i in out_set:
            allow_r[i] = False
        return allow_s, allow_r

    def completion_subset(in_set: frozenset, pick: np.ndarray) -> frozenset:
        chosen = {inst.tasks[i] for i in in_set}
        for i in free:
            if i not in in_set and pick[i]:
                chosen.add(inst.tasks[i])
        return frozenset(chosen)

    # Root bound -- also the loose-deadline O(n) fast path.
    allow_s, allow_r = masks(states_in, states_out)
    root_bound, root_pick, root_exact = _dual_bound(inst, allow_s, allow_r)
    if not math.isfinite(root_bound):
        return infeasible({"strategy": "dual-bound"})
    root_subset = completion_subset(states_in, root_pick)
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
    heap = [(root_bound, 0, next(counter), states_in, states_out)]
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
        lb, depth, _, in_set, out_set = heapq.heappop(heap)
        if lb >= inc_energy - _REL_TOL * max(1.0, inc_energy):
            continue
        if depth >= len(free):
            # Fully decided: the bound is the restricted (convex) optimum,
            # and the completion evaluated at node creation was the subset
            # itself, so the incumbent already accounts for it.
            continue
        branch_task = free[depth]
        for add_to_in in (True, False):
            child_in = in_set | {branch_task} if add_to_in else in_set
            child_out = out_set if add_to_in else out_set | {branch_task}
            allow_s, allow_r = masks(child_in, child_out)
            child_bound, pick, child_exact = _dual_bound(inst, allow_s, allow_r)
            nodes += 1
            if not math.isfinite(child_bound):
                continue
            if child_bound >= inc_energy - _REL_TOL * max(1.0, inc_energy):
                continue
            child_subset = completion_subset(child_in, pick)
            candidate = inst.evaluate(child_subset)
            if candidate.feasible and candidate.energy < inc_energy:
                inc_energy, inc_subset = candidate.energy, child_subset
            if child_exact and candidate.feasible and \
                    candidate.energy <= child_bound * (1.0 + 1e-9) + 1e-12:
                continue  # bound attained by its own completion; subtree closed
            heapq.heappush(heap, (child_bound, depth + 1, next(counter),
                                  child_in, child_out))

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
                         method: str = "auto",
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
                   gap_target=0.0, node_budget=None, method=method,
                   class_budget=class_budget)


def solve_tricrit_pruned_gap(problem: TriCritProblem, *,
                             gap_target: float = 0.05,
                             node_budget: int = PRUNED_GAP_NODE_BUDGET,
                             method: str = "auto") -> SolveResult:
    """Anytime gap-certified TRI-CRIT search (no size limit).

    Same search as :func:`solve_tricrit_pruned` but stops once the certified
    relative gap falls to ``gap_target`` or ``node_budget`` nodes have been
    bounded.  ``metadata["optimality_gap"]`` is the proven gap between the
    returned (feasible) incumbent and the best outstanding lower bound; the
    status is ``"optimal"`` when the gap closed to numerical zero and
    ``"feasible"`` otherwise.
    """
    return _search(problem, exact_mode=False, max_tasks=None,
                   gap_target=gap_target, node_budget=node_budget,
                   method=method, class_budget=0)

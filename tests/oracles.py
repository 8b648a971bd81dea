"""Reference solvers for the closed forms, the convex program and HiGHS.

The library computes the re-execution speed floor, the pruned search's
per-processor dual maximum and the bounded water-fill's common scale in
closed form.  The bisections they replaced live on here, unchanged, as
independent references for the property tests, and so does the per-node
closure form of the dual bound that its per-processor tables replaced.
The dual's switch ratio, now a float bisection, keeps SciPy's ``brentq``
as its reference.
Next to them are SciPy's trust-constr and SLSQP, run on the convex
program the interior point of :mod:`repro.continuous.convex` solves.  The LP/MILP path of :mod:`repro.lp`
(one HiGHS call) is checked against two enumerations that read the model's
symbolic rows, not its :meth:`~repro.lp.LinearProgram.to_arrays` lowering:
every vertex of a bounded LP, and every 0/1 point of a binary MILP.
The exact TRI-CRIT chain solve runs the vectorized subset kernel at every
entry point; :func:`scalar_chain_enumeration` keeps the scalar enumeration
it replaced (one water-fill per subset) as its reference.  The other subset
enumerations solve their subsets in stacks; :func:`best_reexec_subset` is
the scalar scan they replaced, one solve per subset.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable

import numpy as np
from scipy import optimize as sciopt

from repro.continuous.convex import ConvexResult
from repro.continuous.heuristics import solve_with_reexec_set
from repro.core.problems import SolveResult, TriCritProblem
from repro.core.reliability import ReliabilityModel
from repro.lp import LinearProgram
from repro.solvers.context import SolverContext
from repro.solvers.pruned import _exec_energy


def bisect_root(func: Callable[[float], float], lo: float, hi: float, *,
                tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of ``func`` on ``[lo, hi]`` by bisection.

    ``func(lo)`` and ``func(hi)`` must have opposite signs (or one of them
    must be zero).  The returned point ``x`` satisfies ``|hi - lo| <= tol *
    max(1, |x|)`` after at most ``max_iter`` halvings.
    """
    if lo > hi:
        raise ValueError(f"invalid bracket: lo={lo} > hi={hi}")
    f_lo = func(lo)
    f_hi = func(hi)
    # repro: allow[REP006] -- exact-root early exit: any nonzero residual,
    # however tiny, correctly falls through to the bisection loop
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:  # repro: allow[REP006] -- exact-root early exit
        return hi
    if f_lo * f_hi > 0:
        raise ValueError(
            f"bisection bracket does not straddle a root: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0:  # repro: allow[REP006] -- exact-root early exit
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def expand_bracket(func: Callable[[float], float], start: float, *,
                   factor: float = 2.0, max_expansions: int = 200) -> tuple[float, float]:
    """Find ``hi >= start`` such that ``func`` changes sign on ``[start, hi]``.

    ``func(start)`` must be non-positive and ``func`` non-decreasing in the
    region of interest; the bracket grows geometrically.
    """
    lo = start
    hi = start if start > 0 else 1.0
    value = func(hi)
    expansions = 0
    while value < 0 and expansions < max_expansions:
        hi *= factor
        value = func(hi)
        expansions += 1
    if value < 0:
        raise ValueError("could not bracket a sign change")
    return lo, hi


def solve_monotone_increasing(func: Callable[[float], float], target: float,
                              lo: float, hi: float, *, tol: float = 1e-12,
                              max_iter: int = 200) -> float:
    """Solve ``func(x) == target`` for a non-decreasing ``func`` on ``[lo, hi]``.

    When the target lies outside ``[func(lo), func(hi)]`` the corresponding
    endpoint is returned (saturation).
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if target <= f_lo:
        return lo
    if target >= f_hi:
        return hi
    return bisect_root(lambda x: func(x) - target, lo, hi, tol=tol, max_iter=max_iter)


def bisection_floor(model: ReliabilityModel, weight: float, *,
                    tol: float = 1e-12) -> float:
    """Smallest ``f`` in ``[fmin, frel]`` with ``failure(w, f)^2 <= budget``,
    by 200-step bisection."""
    budget = model.threshold_failure(weight)
    if budget <= 0.0:
        # repro: allow[REP006] -- lambda0 is an assigned model parameter
        return model.fmin if model.lambda0 == 0.0 else float(model.frel)

    def excess(f: float) -> float:
        p = model.failure_probability(weight, f)
        return p * p - budget

    lo, hi = model.fmin, float(model.frel)
    if excess(lo) <= tol:
        return lo
    if excess(hi) > tol:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return hi


def brentq_switch_ratio(a: float) -> float:
    """The pruned dual's switch ratio ``u`` (``1 + (a-1) u^a = 2 a u^(a-1)``
    on ``(0, 1)``) by SciPy's ``brentq``, as the library found it before its
    float bisection."""
    return float(sciopt.brentq(lambda u: 1.0 + (a - 1.0) * u ** a
                               - 2.0 * a * u ** (a - 1.0), 0.0, 1.0, xtol=1e-300))


def bisection_dual_bound(inst, allow_s: np.ndarray, allow_r: np.ndarray
                         ) -> tuple[float, np.ndarray, bool]:
    """The pruned search's dual bound by doubling plus 40 bisection steps
    over ``lam``, keeping the best evaluated ``L(lam)``."""
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


def closure_dual_bound(inst, allow_s: np.ndarray, allow_r: np.ndarray,
                       ) -> tuple[float, np.ndarray, bool]:
    """The pruned search's dual bound as per-node closures over the
    processor's tasks: ``L(lam)`` and the ``(K, n)`` supergradient pass
    rebuilt from the node's masks, no tables and no memo.

    ``allow_s`` / ``allow_r`` mark the options still open per task (an *In*
    task allows re-execution only, an *Out* task single only, an undecided
    task both).  Returns ``(bound, pick_reexec, exact)`` where
    ``pick_reexec`` is the dual completion suggestion and ``exact`` means the
    bound is attained by a primal-feasible schedule (the ``lam = 0`` loose
    path held on every processor).

    Each processor's dual is maximised exactly.  Its supergradient
    ``sum_i d_i(lam) - D`` is piecewise ``A + B lam^(-1/a)``: it changes form
    only where an option's duration hits a clip point,
    ``lam = (a-1) (eff/lo)^a`` or ``(a-1) (eff/cap)^a``, and where a task's
    choice switches (``pruned._switch_prices``); the instance holds every
    such price per processor.  The supergradient is evaluated at every
    sorted breakpoint at once; inside the bracketing interval its root is
    ``lam = (a-1) (B / (D - A))^a``, and when it jumps over zero the
    breakpoint itself is the maximiser.  Any ``lam`` yields a
    valid bound, so rounding here costs tightness only.
    """
    inst.bound_evaluations += 1
    D = inst.problem.deadline
    a = inst.exponent
    total = 0.0
    pick = np.zeros(len(inst.tasks), dtype=bool)
    exact = True
    for idx, bp in zip(inst._proc_index, inst._breakpoints):
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

        tau = np.where(a_s & a_r, inst._dual_tau[idx],
                       np.where(a_r, math.inf, -math.inf))

        def durations(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
            """Unclipped duration, bounds and effective weight of each task's
            choice just right of each price in ``lam`` (``(K, n)`` arrays)."""
            choose_r = lam[:, None] < tau
            scale = ((a - 1.0) / lam) ** (1.0 / a)
            eff = np.where(choose_r, 2.0 * w, w)
            return (eff * scale[:, None], np.where(choose_r, lo_r, lo_s),
                    np.where(choose_r, cap_r, cap_s), eff)

        raw, lo, cap, _ = durations(bp)
        slope = np.clip(raw, lo, cap).sum(axis=1) - D
        crossed = np.flatnonzero(slope <= 0.0)
        if crossed.size == 0:
            # Every duration at its minimum still overruns D by less than the
            # feasibility tolerance: the last breakpoint is as good as any.
            # (No breakpoint at all takes weights whose durations underflow.)
            lam = float(bp[-1]) if bp.size else 0.0
        else:
            k = int(crossed[0])
            right = float(bp[k])
            left = float(bp[k - 1]) if k else 0.0
            mid = math.sqrt(left * right) if left > 0.0 else 0.5 * right
            raw, lo, cap, eff = (x[0] for x in durations(np.array([mid])))
            free = (lo < raw) & (raw < cap)
            clipped = float(np.sum(np.where(free, 0.0, np.clip(raw, lo, cap))))
            free_eff = float(np.sum(eff[free]))
            lam = right
            if free_eff > 0.0 and clipped < D:
                lam = min(max((a - 1.0) * (free_eff / (D - clipped)) ** a,
                              left), right)
        best, _, best_choose = L(lam)
        if val > best:
            best, best_choose = val, choose
        total += best
        pick[idx] = best_choose
    return total, pick, exact


def bisection_waterfill(weights, deadline: float, lower, upper, *,
                        exponent: float = 3.0, tol: float = 1e-12
                        ) -> tuple[np.ndarray, float]:
    """``(durations, energy)`` of the bounded water-fill, with the common
    scale ``t`` of ``sum clip(t w, lower, upper) = D`` found by bracketing
    and bisection.  Feasible, non-degenerate inputs only."""
    w = np.asarray(weights, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    positive = w > 0

    def total_time(t: float) -> float:
        d = np.clip(t * w, lower, upper)
        return float(np.sum(d[positive]))

    t_lo = 0.0
    finite_upper = np.isfinite(upper[positive])
    if np.all(finite_upper):
        t_hi = float(np.max(upper[positive] / w[positive])) + 1.0
    else:
        t_hi = max(deadline / float(np.sum(w[positive])), 1.0)
        while total_time(t_hi) < deadline and t_hi < 1e18:
            t_hi *= 2.0

    t_star = solve_monotone_increasing(total_time, deadline, t_lo, t_hi, tol=tol)
    durations = np.clip(t_star * w, lower, upper)
    durations[~positive] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        per_task = np.where(positive,
                            w * (w / durations) ** (exponent - 1.0), 0.0)
    return durations, float(np.sum(per_task))


def best_reexec_subset(tasks, solve: Callable[[tuple], SolveResult], *,
                       solver_name: str, status: str = "optimal") -> SolveResult:
    """Cheapest feasible result of ``solve`` over every subset of ``tasks``.

    The scalar ``2^n`` scan: subsets by size, then in
    ``itertools.combinations`` order of ``tasks``, one ``solve`` each,
    keeping the first strict minimum.  The winner is relabelled
    ``solver_name`` / ``status``; with no feasible subset the result is
    infeasible.  Either way the metadata counts ``subsets_evaluated``.
    """
    best = None
    evaluated = 0
    for size in range(len(tasks) + 1):
        for subset in itertools.combinations(tasks, size):
            evaluated += 1
            result = solve(subset)
            if result.feasible and (best is None or result.energy < best.energy):
                best = result
    if best is None:
        return SolveResult(schedule=None, energy=math.inf, status="infeasible",
                           solver=solver_name, metadata={"subsets_evaluated": evaluated})
    best.solver = solver_name
    best.status = status
    best.metadata["subsets_evaluated"] = evaluated
    return best


def scalar_chain_enumeration(problem: TriCritProblem) -> SolveResult:
    """The exact chain optimum by the scalar ``2^n`` scan: every
    re-execution subset of the positive tasks, in processor order, each
    solved by :func:`~repro.continuous.heuristics.solve_with_reexec_set`'s
    water-fill; the first strict minimum wins."""
    ctx = SolverContext.for_problem(problem)
    tasks = [t for t in problem.mapping.tasks_on(0)
             if problem.graph.weight(t) > 0]
    return best_reexec_subset(
        tasks, lambda subset: solve_with_reexec_set(problem, subset,
                                                    context=ctx),
        solver_name="tricrit-chain-exact")


def trust_constr_convex(mapping, platform, deadline: float, *,
                        effective_weights=None, min_speed=None) -> float:
    """Energy of :func:`scipy_convex` run with trust-constr."""
    return scipy_convex(mapping, platform, deadline, method="trust-constr",
                        effective_weights=effective_weights,
                        min_speed=min_speed).energy


def scipy_convex(mapping, platform, deadline: float, *, method: str,
                 effective_weights=None, min_speed=None) -> ConvexResult:
    """A feasible point of the convex program of
    :mod:`repro.continuous.convex`, optimised by SciPy's ``method``
    (``"trust-constr"`` or ``"slsqp"``).

    SciPy may end a hair outside the deadline, below the optimum; its
    durations are then pulled towards the maximum-speed ones until the
    makespan fits, so the energy returned is never below the optimum.  As
    in the library, a deadline within 1e-9 below the maximum-speed makespan
    is solved at that makespan and a shorter one is ``"infeasible"``; any
    other point is ``"feasible"``, as nothing certifies it optimal.
    Positive weights only; ``min_speed`` maps tasks to their speed floors.
    """
    graph = mapping.graph
    augmented = mapping.augmented_graph()
    tasks = augmented.topological_order()
    index = {t: i for i, t in enumerate(tasks)}
    n = len(tasks)
    a = platform.energy_model.exponent
    w = np.array([effective_weights[t] if effective_weights else graph.weight(t)
                  for t in tasks], dtype=float)
    floor = np.array([min_speed.get(t, platform.fmin) if min_speed else platform.fmin
                      for t in tasks], dtype=float)

    def schedule(d: np.ndarray) -> tuple[np.ndarray, float]:
        finish = np.zeros(n)
        start = np.zeros(n)
        for t in tasks:
            i = index[t]
            start[i] = max((finish[index[p]] for p in augmented.predecessors(t)),
                           default=0.0)
            finish[i] = start[i] + d[i]
        return start, float(finish.max())

    lo = w / platform.fmax
    fastest = schedule(lo)[1]
    if fastest > deadline * (1.0 + 1e-9):
        return ConvexResult({}, {}, {}, math.inf, "infeasible")
    deadline = max(deadline, fastest)
    hi = np.minimum(w / floor, deadline)
    # s_v - s_u - d_u >= 0 per edge, then s + d <= D per task.
    edges = list(augmented.edges())
    rows = np.zeros((len(edges) + n, 2 * n))
    for k, (u, v) in enumerate(edges):
        rows[k, n + index[v]], rows[k, n + index[u]], rows[k, index[u]] = 1.0, -1.0, -1.0
    rows[len(edges):, :n] = rows[len(edges):, n:] = np.eye(n)
    lbs = [0.0] * len(edges) + [-np.inf] * n
    ubs = [np.inf] * len(edges) + [deadline] * n

    # Shrink from the slowest durations towards the fastest until the
    # deadline holds.
    d0 = hi.copy()
    for _ in range(60):
        s0, makespan = schedule(d0)
        if makespan <= deadline:
            break
        d0 = lo + 0.5 * (d0 - lo)

    def energy(x: np.ndarray) -> float:
        return float(np.sum(w * (w / x[:n]) ** (a - 1.0)))

    def gradient(x: np.ndarray) -> np.ndarray:
        return np.concatenate([-(a - 1.0) * (w / x[:n]) ** a, np.zeros(n)])

    def hessian(x: np.ndarray) -> np.ndarray:
        return np.diag(np.concatenate([a * (a - 1.0) * (w / x[:n]) ** a / x[:n],
                                       np.zeros(n)]))

    bounds = sciopt.Bounds(np.concatenate([lo, np.zeros(n)]),
                           np.concatenate([hi, np.full(n, deadline)]))
    constraints = [sciopt.LinearConstraint(rows, lbs, ubs)]
    x0 = np.concatenate([d0, s0])
    if method == "trust-constr":
        res = sciopt.minimize(
            energy, x0, jac=gradient, hess=hessian, method="trust-constr",
            bounds=bounds, constraints=constraints,
            options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 3000, "verbose": 0})
    elif method == "slsqp":
        res = sciopt.minimize(
            energy, x0, jac=gradient, method="SLSQP", bounds=bounds,
            constraints=constraints, options={"maxiter": 2000, "ftol": 1e-12})
    else:
        raise ValueError(f"unknown method {method!r}")
    d = np.clip(res.x[:n], lo, hi)
    start, makespan = schedule(d)
    if makespan > deadline:
        # The makespan is convex along the segment from lo to d.
        d = lo + (d - lo) * (deadline - fastest) / (makespan - fastest)
        start = schedule(d)[0]
    return ConvexResult(
        durations={t: float(d[index[t]]) for t in tasks},
        speeds={t: float(w[index[t]] / d[index[t]]) for t in tasks},
        start_times={t: float(start[index[t]]) for t in tasks},
        energy=energy(np.concatenate([d, res.x[n:]])), status="feasible")


def _better(model: LinearProgram, value: float, best: float | None) -> bool:
    if best is None:
        return True
    return value > best if model.sense == "max" else value < best


def vertex_enumeration_lp(model: LinearProgram, *, tol: float = 1e-9) -> float | None:
    """Optimal objective of a bounded, continuous LP by vertex enumeration.

    Every row and every finite bound is a hyperplane ``a x = b``.  Each set
    of ``n`` of them that includes every equality row is solved with
    :func:`numpy.linalg.solve`; the best point that satisfies every row and
    bound within ``tol`` is the optimum.  ``None`` means no vertex is
    feasible, so a bounded LP is infeasible.
    """
    n = model.num_variables
    planes: list[tuple[np.ndarray, float]] = []
    equalities: list[int] = []
    for con in model.constraints:
        row = np.zeros(n)
        for idx, coeff in con.expression.coeffs.items():
            row[idx] += coeff
        if con.sense == "==":
            equalities.append(len(planes))
        planes.append((row, -con.expression.constant))
    for var in model.variables:
        for bound in (var.lower, var.upper):
            if bound is not None:
                planes.append((np.eye(n)[var.index], float(bound)))
    inequalities = [k for k in range(len(planes)) if k not in equalities]

    def feasible(x: np.ndarray) -> bool:
        return (all(con.violation(x) <= tol for con in model.constraints)
                and all((v.lower is None or x[v.index] >= v.lower - tol)
                        and (v.upper is None or x[v.index] <= v.upper + tol)
                        for v in model.variables))

    best: float | None = None
    for chosen in itertools.combinations(inequalities, n - len(equalities)):
        active = equalities + list(chosen)
        A = np.array([planes[k][0] for k in active])
        b = np.array([planes[k][1] for k in active])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x) and _better(model, model.objective.value(x), best):
            best = model.objective.value(x)
    return best


def binary_enumeration_milp(model: LinearProgram) -> float | None:
    """Optimal objective of a MILP whose variables are all 0/1, by trying all
    ``2^n`` points; ``None`` when none is feasible."""
    if not all(v.is_integer and v.lower == 0 and v.upper == 1 for v in model.variables):
        raise ValueError("binary_enumeration_milp needs 0/1 variables only")
    best: float | None = None
    for bits in itertools.product((0.0, 1.0), repeat=model.num_variables):
        x = np.array(bits)
        if all(con.violation(x) <= 1e-9 for con in model.constraints):
            value = model.objective.value(x)
            if _better(model, value, best):
                best = value
    return best

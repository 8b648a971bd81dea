"""Bisection oracles for the closed forms of the library.

The library computes the re-execution speed floor, the pruned search's
per-processor dual maximum and the bounded water-fill's common scale in
closed form.  The bisections they replaced live on here, unchanged, as
independent references for the property tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.reliability import ReliabilityModel
from repro.optimize.bisection import solve_monotone_increasing
from repro.solvers.pruned import _exec_energy


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

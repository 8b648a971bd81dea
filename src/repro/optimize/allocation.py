"""Deadline allocation ("water-filling") solvers for serialised task sets.

The elementary continuous subproblem behind every closed form of the paper
is: given tasks with weights ``w_1..w_n`` that must execute one after the
other within a total time budget ``D``, choose durations ``d_i`` (hence
speeds ``f_i = w_i/d_i``) minimising ``sum_i w_i^a / d_i^{a-1}`` subject to
``sum_i d_i <= D`` and per-task duration bounds coming from ``fmin`` and
``fmax``.

Without bounds the KKT conditions give ``d_i`` proportional to ``w_i``, i.e.
*all tasks run at the same speed* ``sum(w)/D`` -- the "slow every task
equally" rule the paper's chain strategy starts from.  With bounds the
durations are ``clip(t w_i, lower_i, upper_i)`` for one common scale ``t``,
solved exactly from the sorted breakpoints of that piecewise-linear total
(:func:`allocate_durations`).

The same machinery allocates a deadline across *segments of equivalent
weight* (series compositions of a series-parallel decomposition), because a
segment of equivalent weight ``W`` getting duration ``d`` costs exactly
``W^a / d^{a-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AllocationResult",
    "allocate_durations",
    "allocate_durations_with_bounds",
    "equal_speed_durations",
]


@dataclass(frozen=True)
class AllocationResult:
    """Durations chosen for a serialised set of (equivalent) weights."""

    durations: np.ndarray
    energy: float
    total_time: float
    saturated_lower: np.ndarray  # tasks forced to run at fmax (minimum duration)
    saturated_upper: np.ndarray  # tasks forced to run at fmin (maximum duration)

    @property
    def speeds(self) -> np.ndarray:
        """Implied constant speeds ``w_i / d_i`` (0 for zero-weight tasks)."""
        out = np.zeros_like(self.durations)
        np.divide(self._weights, self.durations, out=out, where=self.durations > 0)
        return out

    # carried for the speeds property; set in allocate_durations
    _weights: np.ndarray = None  # type: ignore[assignment]


def _fill_scale(w: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                deadline: float) -> float:
    """The common scale ``t`` with ``sum_i clip(t w_i, lower_i, upper_i) = D``.

    ``w > 0`` everywhere and ``sum(lower) < D``.  The left side is piecewise
    linear and non-decreasing in ``t``: task ``i`` leaves its lower bound at
    ``t = lower_i / w_i`` (slope ``+w_i``, constant ``-lower_i``) and reaches
    its upper bound at ``t = upper_i / w_i`` (slope ``-w_i``, constant
    ``+upper_i``; never, when ``upper_i`` is infinite).  One sort of those
    events and one cumulative sum of slope and constant give the total at
    every event; ``t`` is then solved linearly on the segment that crosses
    ``D``.  When even every task at its upper bound stays under ``D`` (a
    loose deadline), ``t`` lies past the last event, where all of them
    saturate.
    """
    finite = np.isfinite(upper)
    at = np.concatenate([lower / w, upper[finite] / w[finite]])
    order = np.argsort(at, kind="stable")
    at = at[order]
    slope = np.cumsum(np.concatenate([w, -w[finite]])[order])
    const = float(np.sum(lower)) + np.cumsum(
        np.concatenate([-lower, upper[finite]])[order])
    reached = np.flatnonzero(const + slope * at >= deadline)
    if reached.size == 0:
        if np.all(finite):
            # Past the last event, so every clip lands on its upper bound.
            return float(at[-1]) + 1.0
        # Past the last finite event the free tasks grow without bound.
        return float((deadline - const[-1]) / slope[-1])
    k = int(reached[0])
    if k == 0 or slope[k - 1] <= 0.0:
        # Only rounding puts the crossing at the very first event or on a
        # flat stretch between events that share one ``t``.
        return float(at[k])
    t = (deadline - const[k - 1]) / slope[k - 1]
    return float(min(max(t, at[k - 1]), at[k]))


def _energy(w: np.ndarray, durations: np.ndarray, exponent: float) -> np.ndarray:
    """Per-task energy ``w f^(alpha-1)`` at speed ``f = w/d``; the equal
    ``w^alpha / d^(alpha-1)`` underflows to 0/0 on tiny weights."""
    return w * (w / durations) ** (exponent - 1.0)


def equal_speed_durations(weights, deadline: float) -> np.ndarray:
    """Unbounded optimum: every task at speed ``sum(w)/deadline``."""
    w = np.asarray(weights, dtype=float)
    total = float(np.sum(w))
    if total == 0:
        return np.zeros_like(w)
    return w * (deadline / total)


def allocate_durations(weights, deadline: float, *, fmin: float | None = None,
                       fmax: float | None = None,
                       exponent: float = 3.0) -> AllocationResult:
    """Optimal durations for serialised weights within ``deadline``.

    Solves ``min sum w_i^a / d_i^{a-1}`` s.t. ``sum d_i <= D`` and
    ``w_i/fmax <= d_i <= w_i/fmin`` (bounds omitted when ``fmax``/``fmin``
    are ``None``).  Zero-weight tasks get zero duration and zero energy.

    Raises ``ValueError`` when the instance is infeasible, i.e. when even at
    ``fmax`` the weights do not fit in the deadline.
    """
    w = np.asarray(weights, dtype=float)
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if exponent <= 1.0:
        raise ValueError("power exponent must exceed 1")

    n = w.size
    lower = np.zeros(n) if fmax is None else w / float(fmax)
    upper = np.full(n, np.inf) if fmin is None else np.where(w > 0, w / float(fmin), 0.0)
    if fmin is not None and fmax is not None and fmin > fmax:
        raise ValueError("fmin cannot exceed fmax")
    return allocate_durations_with_bounds(w, deadline, lower, upper,
                                          exponent=exponent)


def allocate_durations_with_bounds(weights, deadline: float, lower, upper, *,
                                   exponent: float = 3.0) -> AllocationResult:
    """Like :func:`allocate_durations` but with explicit per-task duration bounds.

    ``lower``/``upper`` give, for every task, the minimum and maximum
    admissible duration (e.g. ``w_i/fmax_i`` and ``w_i/fmin_i`` with
    task-specific speed bounds, as needed by the TRI-CRIT chain solver where
    re-executed and single-execution tasks have different speed floors).
    """
    w = np.asarray(weights, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if exponent <= 1.0:
        raise ValueError("power exponent must exceed 1")
    if lower.shape != w.shape or upper.shape != w.shape:
        raise ValueError("bounds must have the same shape as the weights")
    if np.any(lower < 0) or np.any(upper < lower - 1e-15):
        raise ValueError("need 0 <= lower <= upper for every task")

    n = w.size
    min_time = float(np.sum(lower))
    if min_time > deadline * (1.0 + 1e-12):
        raise ValueError(
            f"infeasible: even at fmax the serialised tasks need {min_time:.6g} > D={deadline:.6g}"
        )

    positive = w > 0
    if not np.any(positive):
        durations = np.zeros(n)
        return AllocationResult(durations=durations, energy=0.0, total_time=0.0,
                                saturated_lower=np.zeros(n, dtype=bool),
                                saturated_upper=np.zeros(n, dtype=bool),
                                _weights=w)

    # Degenerate brackets: when the lower bounds already consume the whole
    # deadline (re-executions ate all the slack) or every bound is zero-width
    # (``fmin == fmax`` chains), the feasible region is the single point
    # ``d = lower`` -- return that fmax-saturated closed form directly.
    zero_width = bool(np.all(upper[positive] <= lower[positive]
                             * (1.0 + 1e-12) + 1e-300))
    if zero_width or min_time >= deadline * (1.0 - 1e-12):
        durations = np.where(positive, lower, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_task = np.where(positive, _energy(w, durations, exponent), 0.0)
        return AllocationResult(
            durations=durations, energy=float(np.sum(per_task)),
            total_time=float(np.sum(durations)),
            saturated_lower=positive.copy(),
            saturated_upper=positive & (upper <= lower * (1.0 + 1e-12) + 1e-300),
            _weights=w)

    t_star = _fill_scale(w[positive], lower[positive], upper[positive], deadline)
    tw = t_star * w
    durations = np.clip(tw, lower, upper)
    durations[~positive] = 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        per_task = np.where(positive, _energy(w, durations, exponent), 0.0)
    energy = float(np.sum(per_task))
    # A task sits at a bound exactly when the clip above picked it.
    sat_lo = positive & (tw <= lower)
    sat_hi = positive & (tw >= upper)
    return AllocationResult(durations=durations, energy=energy,
                            total_time=float(np.sum(durations)),
                            saturated_lower=sat_lo, saturated_upper=sat_hi,
                            _weights=w)

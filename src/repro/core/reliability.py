"""Reliability model of the paper (Section II.b).

Dynamic voltage and frequency scaling has a negative effect on transient
fault rates (Zhu et al., reference [14] of the paper): the slower a task
runs, the more likely it is to be hit by a transient fault.  The paper
adopts the exponential fault-rate model

    ``lambda(f) = lambda0 * exp(d * (fmax - f) / (fmax - fmin))``

where ``lambda0`` is the fault rate at maximum speed and ``d >= 0`` measures
the sensitivity of the fault rate to DVFS.  The reliability of task ``T_i``
of weight ``w_i`` executed once at speed ``f`` is, to first order in the
(small) fault probability,

    ``R_i(f) = 1 - lambda(f) * w_i / f``                        (eq. 1)

because ``w_i / f`` is the exposure time of the task.  The reliability
constraint of the TRI-CRIT problem requires every task to be at least as
reliable as if it were executed once at a reference speed ``f_rel``:

    ``R_i >= R_i(f_rel)``.

A task executed once therefore needs ``f >= f_rel``.  A *re-executed* task
(two attempts at speeds ``f1`` and ``f2``) succeeds when at least one attempt
succeeds, so

    ``R_i = 1 - (1 - R_i(f1)) * (1 - R_i(f2))``

and the constraint becomes ``(1 - R_i(f1)) (1 - R_i(f2)) <= 1 - R_i(f_rel)``,
i.e. the product of the two failure probabilities must not exceed the single
failure probability at ``f_rel``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike

#: Vectorised numeric result: scalar inputs yield ``float``, array inputs
#: yield an ``ndarray`` of the broadcast shape.
Vectorised = Union[float, np.ndarray]

__all__ = [
    "ReliabilityModel",
    "equal_reexecution_floor",
    "DEFAULT_LAMBDA0",
    "DEFAULT_SENSITIVITY",
]

#: Default average fault rate at ``fmax`` (faults per unit of time).  The
#: value 1e-5 is in the range used by Zhu et al. and by the companion
#: research reports; it keeps single-task failure probabilities small so the
#: first-order reliability expression of the paper stays accurate.
DEFAULT_LAMBDA0 = 1e-5

#: Default DVFS sensitivity exponent ``d``.  ``d = 3`` is a common choice in
#: the literature (fault rate increases by 10^3 over the speed range when a
#: base-10 exponential is used; here the model is natural-exponential as in
#: the paper's equation (1)).
DEFAULT_SENSITIVITY = 3.0


@dataclass(frozen=True)
class ReliabilityModel:
    """Exponential transient-fault model with a reliability threshold speed.

    Parameters
    ----------
    fmin, fmax:
        Speed range of the processors; used to normalise the exponent.
    lambda0:
        Fault rate at ``fmax``.
    sensitivity:
        Exponent ``d >= 0``: how strongly lowering the speed increases the
        fault rate.  ``d = 0`` makes the fault rate speed-independent.
    frel:
        Reliability reference speed.  A single execution at speed
        ``f >= frel`` satisfies the constraint; the default is ``fmax``
        (the strictest setting, matching the companion report where the
        threshold is the reliability of running at maximum speed).
    """

    fmin: float
    fmax: float
    lambda0: float = DEFAULT_LAMBDA0
    sensitivity: float = DEFAULT_SENSITIVITY
    frel: float | None = None

    def __post_init__(self) -> None:
        if self.fmin <= 0 or self.fmax < self.fmin:
            raise ValueError("need 0 < fmin <= fmax")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be non-negative")
        if self.sensitivity < 0:
            raise ValueError("sensitivity d must be non-negative")
        frel = self.fmax if self.frel is None else self.frel
        if not (self.fmin <= frel <= self.fmax):
            raise ValueError(
                f"frel={frel} must lie in [fmin={self.fmin}, fmax={self.fmax}]"
            )
        object.__setattr__(self, "frel", float(frel))

    # ------------------------------------------------------------------
    # fault rate and per-execution reliability
    # ------------------------------------------------------------------
    def fault_rate(self, speed: ArrayLike) -> Vectorised:
        """Fault rate ``lambda(f) = lambda0 * exp(d (fmax-f)/(fmax-fmin))``."""
        f = np.asarray(speed, dtype=float)
        if self.fmax == self.fmin:
            scale = np.zeros_like(f)
        else:
            scale = (self.fmax - f) / (self.fmax - self.fmin)
        result = self.lambda0 * np.exp(self.sensitivity * scale)
        if np.isscalar(speed):
            return float(result)
        return result

    def failure_probability(self, weight: ArrayLike, speed: ArrayLike) -> Vectorised:
        """Failure probability of one execution: ``lambda(f) * w / f``.

        This is the first-order expression used in the paper's equation (1).
        Values are clipped to ``[0, 1]`` so that extreme parameter choices
        still yield a valid probability.
        """
        w = np.asarray(weight, dtype=float)
        f = np.asarray(speed, dtype=float)
        if np.any(f <= 0):
            raise ValueError("speeds must be positive")
        p = self.fault_rate(f) * w / f
        p = np.clip(p, 0.0, 1.0)
        if np.isscalar(weight) and np.isscalar(speed):
            return float(p)
        return p

    def reliability(self, weight: ArrayLike, speed: ArrayLike) -> Vectorised:
        """Reliability of a single execution, ``R_i(f) = 1 - lambda(f) w/f``."""
        result = 1.0 - self.failure_probability(weight, speed)
        return result

    def reexecution_reliability(self, weight: ArrayLike, speed_first: ArrayLike,
                                speed_second: ArrayLike) -> Vectorised:
        """Reliability of two independent attempts at the given speeds."""
        p1 = self.failure_probability(weight, speed_first)
        p2 = self.failure_probability(weight, speed_second)
        result = 1.0 - p1 * p2
        if np.isscalar(weight) and np.isscalar(speed_first) and np.isscalar(speed_second):
            return float(result)
        return result

    # ------------------------------------------------------------------
    # constraint helpers
    # ------------------------------------------------------------------
    def threshold(self, weight: ArrayLike) -> float:
        """Reliability threshold ``R_i(frel)`` of a task of given weight."""
        return self.reliability(weight, self.frel)

    def threshold_failure(self, weight: ArrayLike) -> float:
        """Failure-probability budget ``1 - R_i(frel)`` of a task."""
        return self.failure_probability(weight, self.frel)

    def single_execution_ok(self, weight: ArrayLike, speed: ArrayLike, *,
                            tol: float = 1e-12) -> bool:
        """Does one execution at ``speed`` meet the reliability constraint?

        Since reliability is increasing in speed this is equivalent to
        ``speed >= frel`` for any positive weight (and trivially true for a
        zero-weight task); the direct probability comparison is used so that
        the tolerance handling matches the solvers.
        """
        return bool(
            self.failure_probability(weight, speed)
            <= self.threshold_failure(weight) + tol
        )

    def reexecution_ok(self, weight: ArrayLike, speed_first: ArrayLike,
                       speed_second: ArrayLike, *,
                       tol: float = 1e-12) -> bool:
        """Do two executions at the given speeds meet the constraint?"""
        p1 = self.failure_probability(weight, speed_first)
        p2 = self.failure_probability(weight, speed_second)
        return bool(p1 * p2 <= self.threshold_failure(weight) + tol)

    def min_equal_reexecution_speed(self, weight: ArrayLike, *,
                                    tol: float = 1e-12) -> float:
        """Smallest speed ``f`` such that two executions at ``f`` are reliable enough.

        The closed form of :func:`equal_reexecution_floor` on this model.
        """
        return float(equal_reexecution_floor(
            weight, self.fmin, self.fmax, self.lambda0, self.sensitivity,
            self.frel, tol=tol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReliabilityModel(fmin={self.fmin}, fmax={self.fmax}, "
            f"lambda0={self.lambda0}, d={self.sensitivity}, frel={self.frel})"
        )


def equal_reexecution_floor(weight: ArrayLike, fmin: ArrayLike, fmax: ArrayLike,
                            lambda0: ArrayLike, sensitivity: ArrayLike,
                            frel: ArrayLike, *, tol: float = 1e-12) -> np.ndarray:
    """Slowest equal speed ``f`` in ``[fmin, frel]`` with ``p(f)^2 <= p(frel)``.

    Element-wise over broadcast-compatible model columns (``fmin``/``fmax``
    are the model's speed range, not the platform's).  With
    ``p(f) = lambda0 e^{c (fmax - f)} w / f`` and ``c = d / (fmax - fmin)``
    the equality ``p(f) = sqrt(p(frel))`` reads ``c f e^{c f} = c K`` with
    ``K = lambda0 w e^{c fmax} / sqrt(p(frel))``, so ``f = W0(c K) / c``.
    It is evaluated as ``omega(log c + log(lambda0 w) + c fmax -
    log(p(frel)) / 2) / c`` with the Wright omega function
    ``omega(z) = W0(e^z)`` (:func:`_wright_omega`), which never forms
    ``e^{c fmax}``; ``c = 0``, or a subnormal ``c``, gives
    ``f = lambda0 w / sqrt(p(frel))``.

    End cases: ``fmin`` when even ``fmin`` meets the budget within ``tol``
    (this covers a failure probability clipped at 1), ``frel`` when ``frel``
    misses it by more than ``tol``, and for a zero budget ``fmin`` when
    ``lambda0 == 0`` (failure is identically zero), else ``frel``.  Every
    cell is computed on its own, so a floor does not depend on the cells
    evaluated beside it.
    """
    w, fmin, fmax, lambda0, sensitivity, frel = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(
            weight, fmin, fmax, lambda0, sensitivity, frel))
    span = fmax - fmin
    safe_span = np.where(span > 0, span, 1.0)

    def failure(f: np.ndarray) -> np.ndarray:
        # ReliabilityModel.failure_probability's arithmetic, per cell.
        scale = np.where(span > 0, (fmax - f) / safe_span, 0.0)
        return np.clip(lambda0 * np.exp(sensitivity * scale) * w / f, 0.0, 1.0)

    budget = failure(frel)
    # repro: allow[REP006] -- lambda0 is an assigned model parameter,
    # never computed; exact zero is the perfect-reliability sentinel
    out = np.where(lambda0 == 0.0, fmin, frel)
    solve = budget > 0.0
    at_fmin = solve & (failure(fmin) ** 2 - budget <= tol)
    out[at_fmin] = fmin[at_fmin]
    solve &= ~at_fmin & (failure(frel) ** 2 - budget <= tol)
    if np.any(solve):
        c = np.where(span > 0, sensitivity / safe_span, 0.0)[solve]
        rate_w = lambda0[solve] * w[solve]
        f = rate_w / np.sqrt(budget[solve])
        # A subnormal ``c`` has lost its significant bits, and ``e^{c fmax}``
        # is 1 to double precision: the ``c = 0`` form is the exact one.
        curved = ~(c < np.finfo(float).tiny)
        if np.any(curved):
            c = c[curved]
            z = (np.log(c) + np.log(rate_w[curved]) + c * fmax[solve][curved]
                 - 0.5 * np.log(budget[solve][curved]))
            f[curved] = np.array([_wright_omega(v) for v in z.tolist()]) / c
        out[solve] = np.clip(f, fmin[solve], frel[solve])
    return out


#: The second FSC step's threshold, ``72 eps``.
_TWO_STEP_TOL = 72.0 * sys.float_info.epsilon


def _wright_omega(x: float) -> float:
    """The Wright omega function on the real axis: the ``w`` with
    ``w + log w = x``, i.e. ``W0(e^x)``.

    The real-axis iteration of Lawrence, Corless & Jeffrey, "Algorithm 917:
    Complex double-precision evaluation of the Wright omega function" (ACM
    TOMS 38(3), 2012), step for step as ``scipy.special.wrightomega``
    evaluates a real argument, so on a platform libm it returns SciPy's
    bits.  ``e^x`` is already exact below ``x = -50`` and ``x`` above
    ``1e20``.  Between them an initial guess by region, ``e^x`` below
    ``-2``, ``e^{2(x-1)/3}`` on ``[-2, 1)`` and ``x - log x + log x / x``
    from ``1``, takes one Fritsch-Shafer-Crowley (FSC) step, and a second
    one when the first step's error estimate ``|(2w^2 - 8w - 1) r^4|``
    reaches ``72 eps |1 + w|^6``.  ``omega(+inf) = +inf``,
    ``omega(-inf) = 0`` and NaN stays NaN.  The steps are written out in
    full: the floor calls this once per cell.
    """
    if math.isnan(x) or x > 1e20:
        return x
    if x < -50.0:
        return math.exp(x)
    if x < -2.0:
        w = math.exp(x)
    elif x < 1.0:
        w = math.exp(2.0 * (x - 1.0) / 3.0)
    else:
        w = math.log(x)
        w = x - w + w / x
    # An FSC step: ``r`` is the residual of ``w + log w = x``.
    r = x - w - math.log(w)
    wp1 = w + 1.0
    t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    w *= 1.0 + r / wp1 * (t - r) / (t - 2.0 * r)
    if (abs((2.0 * w * w - 8.0 * w - 1.0) * abs(r) ** 4.0)
            >= _TWO_STEP_TOL * abs(wp1) ** 6.0):
        r = x - w - math.log(w)
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
        w *= 1.0 + r / wp1 * (t - r) / (t - 2.0 * r)
    return w

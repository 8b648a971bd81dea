"""Scalar bracketing bisection with explicit tolerance control.

The library's own monotone equations (the water-fill's common scale, the
re-execution floor, VDD rounding's failure budget) are solved in closed
form; :func:`bisect_root` stays public for callers that have no closed form.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["bisect_root"]


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

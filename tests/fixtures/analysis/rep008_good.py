"""REP008 fixture: per-cell stops and full-shape exponents."""

import numpy as np


def bisect_rows(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    pending = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = f(mid) > 0.0
        hi = np.where(pending & up, mid, hi)
        lo = np.where(pending & ~up, mid, lo)
        pending &= hi - lo > 1e-12
    return 0.5 * (lo + hi)


def first_positive_row(rows: np.ndarray) -> int:
    # A per-row test inside a row loop is not a batch-wide stop.
    for i, row in enumerate(rows):
        if np.any(row > 0.0):
            return i
    return -1


def energy_rows(w: np.ndarray, f: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    exponent = np.broadcast_to(alpha[:, None] - 1.0, f.shape).copy()
    return (w * f ** exponent).sum(axis=1)

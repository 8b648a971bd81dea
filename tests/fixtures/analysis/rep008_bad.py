"""REP008 fixture: batch kernels whose rows depend on their batch."""

import numpy as np


def bisect_rows(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = f(mid) > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        if not (hi - lo > 1e-12).any():
            break
    return 0.5 * (lo + hi)


def grow_rows(f, hi: np.ndarray) -> np.ndarray:
    while True:
        pending = f(hi) < 0.0
        if np.all(~pending):
            break
        hi = np.where(pending, 2.0 * hi, hi)
    return hi


def energy_rows(w: np.ndarray, f: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return (w * f ** (alpha[:, None] - 1.0)).sum(axis=1)

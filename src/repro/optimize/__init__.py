"""Convex-optimisation substrate: bisection and duration allocation."""

from .allocation import AllocationResult, allocate_durations, equal_speed_durations
from .bisection import bisect_root

__all__ = [
    "bisect_root",
    "AllocationResult",
    "allocate_durations",
    "equal_speed_durations",
]

"""Convex-optimisation substrate: bisection and duration allocation."""

from .allocation import AllocationResult, allocate_durations, equal_speed_durations
from .bisection import bisect_root, expand_bracket, solve_monotone_increasing

__all__ = [
    "bisect_root",
    "expand_bracket",
    "solve_monotone_increasing",
    "AllocationResult",
    "allocate_durations",
    "equal_speed_durations",
]

"""Convex-optimisation substrate: bounded duration allocation (the water-fill)."""

from .allocation import AllocationResult, allocate_durations, equal_speed_durations

__all__ = [
    "AllocationResult",
    "allocate_durations",
    "equal_speed_durations",
]

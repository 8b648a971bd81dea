"""Energy model of the paper (Section II.c).

The paper uses the classical dynamic-power model: a processor operated at
speed ``f`` during ``t`` time units dissipates power ``f^3`` and therefore
consumes ``f^3 * t`` joules.  Executing task ``T_i`` of weight ``w_i`` at
constant speed ``f`` takes ``w_i / f`` time units and costs

    ``E_i = f^3 * w_i / f = w_i * f^2``.

Static energy is ignored because every processor is up during the whole
execution, so the static part is a constant offset that does not influence
the optimisation.

When a task is re-executed at speeds ``f1`` and ``f2`` the paper accounts for
*both* executions even when the first one succeeds (worst-case accounting):
``E_i = w_i * (f1^2 + f2^2)``.

This module provides both scalar helpers and vectorised NumPy versions used
by the solvers and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Union

import numpy as np
from numpy.typing import ArrayLike

#: Vectorised numeric result: scalar inputs yield ``float``, array inputs
#: yield an ``ndarray`` of the broadcast shape.
Vectorised = Union[float, np.ndarray]

__all__ = [
    "EnergyModel",
    "task_energy",
    "reexecution_energy",
    "energy_for_duration",
    "schedule_energy",
    "continuous_lower_bound_single_chain",
]

#: Exponent of the dynamic power law ``P(f) = f^alpha``.  The paper fixes
#: ``alpha = 3`` (cube law) following Ishihara & Yasuura; the class below
#: keeps it configurable so that sensitivity studies can vary it.
DEFAULT_POWER_EXPONENT = 3.0


@dataclass(frozen=True)
class EnergyModel:
    """Dynamic-energy model ``P(f) = f^alpha`` with ``alpha > 1``.

    Parameters
    ----------
    exponent:
        Power-law exponent ``alpha``.  The paper (and this reproduction's
        closed forms) use ``alpha = 3``; the general convex machinery works
        for any ``alpha > 1``.
    static_power:
        Constant power drawn by a switched-on processor.  The paper sets it
        to zero (all processors stay on for the whole schedule, so the term
        is constant); it is kept here so that the simulator can report total
        energy including the static part if desired.
    """

    exponent: float = DEFAULT_POWER_EXPONENT
    static_power: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent <= 1.0:
            raise ValueError(
                f"power exponent must be > 1 for a convex model, got {self.exponent}"
            )
        if self.static_power < 0.0:
            raise ValueError("static power cannot be negative")

    # ------------------------------------------------------------------
    # per-execution energies
    # ------------------------------------------------------------------
    def power(self, speed: ArrayLike) -> np.ndarray:
        """Dynamic power ``f^alpha`` (vectorised)."""
        return np.asarray(speed, dtype=float) ** self.exponent

    def task_energy(self, weight: ArrayLike, speed: ArrayLike) -> Vectorised:
        """Energy of one execution of a task of ``weight`` at ``speed``.

        ``E = w * f^(alpha-1)`` -- with the default cube law, ``w * f^2``.
        Vectorised over both arguments.
        """
        w = np.asarray(weight, dtype=float)
        f = np.asarray(speed, dtype=float)
        if np.any(f <= 0):
            raise ValueError("speeds must be positive")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        result = w * f ** (self.exponent - 1.0)
        if np.isscalar(weight) and np.isscalar(speed):
            return float(result)
        return result

    def energy_for_duration(self, weight: ArrayLike, duration: ArrayLike) -> Vectorised:
        """Energy of executing ``weight`` units of work in ``duration`` time.

        The work is executed at the constant speed ``w/d`` (running at a
        constant speed is optimal for a fixed duration because the power law
        is convex), so ``E = w^alpha / d^(alpha-1)`` -- with the cube law,
        ``w^3 / d^2``.  Evaluated in the speed form ``w * (w/d)^(alpha-1)``,
        which does not underflow to ``0/0`` for tiny ``w`` and ``d``.
        Vectorised.
        """
        w = np.asarray(weight, dtype=float)
        d = np.asarray(duration, dtype=float)
        if np.any(d <= 0):
            raise ValueError("durations must be positive")
        result = w * (w / d) ** (self.exponent - 1.0)
        if np.isscalar(weight) and np.isscalar(duration):
            return float(result)
        return result

    def reexecution_energy(self, weight: ArrayLike, speed_first: ArrayLike,
                           speed_second: ArrayLike) -> Vectorised:
        """Worst-case energy of a re-executed task: both executions count."""
        return self.task_energy(weight, speed_first) + self.task_energy(
            weight, speed_second
        )

    def interval_energy(self, intervals: Iterable[tuple[float, float]]) -> float:
        """Energy of a VDD-HOPPING execution given ``(speed, time)`` intervals."""
        total = 0.0
        for speed, time in intervals:
            if time < 0:
                raise ValueError("interval durations must be non-negative")
            if speed <= 0 and time > 0:
                raise ValueError("speeds must be positive")
            total += float(speed) ** self.exponent * float(time)
        return total

    def static_energy(self, num_processors: int, makespan: float) -> float:
        """Static part of the energy for ``num_processors`` kept on for ``makespan``."""
        return self.static_power * num_processors * makespan


# ----------------------------------------------------------------------
# module-level functional API (default cube-law model)
# ----------------------------------------------------------------------
_DEFAULT = EnergyModel()


def task_energy(weight: ArrayLike, speed: ArrayLike,
                model: EnergyModel = _DEFAULT) -> Vectorised:
    """Energy ``w * f^2`` of one execution under the default cube law."""
    return model.task_energy(weight, speed)


def reexecution_energy(weight: ArrayLike, speed_first: ArrayLike,
                       speed_second: ArrayLike,
                       model: EnergyModel = _DEFAULT) -> Vectorised:
    """Worst-case energy ``w (f1^2 + f2^2)`` of a re-executed task."""
    return model.reexecution_energy(weight, speed_first, speed_second)


def energy_for_duration(weight: ArrayLike, duration: ArrayLike,
                        model: EnergyModel = _DEFAULT) -> Vectorised:
    """Energy ``w^3 / d^2`` of executing ``weight`` within ``duration``."""
    return model.energy_for_duration(weight, duration)


def schedule_energy(executions: Iterable[tuple[float, Sequence[float]]],
                    model: EnergyModel = _DEFAULT) -> float:
    """Total energy of a schedule given ``(weight, [speeds...])`` records.

    Each record lists the speed of every execution of the task (one entry
    for a plain execution, two for a re-executed task).  All executions are
    charged, matching the worst-case accounting of the paper.
    """
    total = 0.0
    for weight, speeds in executions:
        for f in speeds:
            total += model.task_energy(weight, f)
    return total


def continuous_lower_bound_single_chain(weights: ArrayLike, deadline: float,
                                        model: EnergyModel = _DEFAULT) -> float:
    """Energy lower bound ``(sum w_i)^3 / D^2`` for tasks sharing one processor.

    For a linear chain (or any set of tasks serialised on a single
    processor) the CONTINUOUS optimum runs every task at the common speed
    ``sum(w)/D``; the resulting energy is a lower bound for every discrete
    model on the same instance.
    """
    w = float(np.sum(np.asarray(weights, dtype=float)))
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    return model.energy_for_duration(w, deadline)

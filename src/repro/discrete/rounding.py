"""Continuous -> VDD-HOPPING rounding adapter (Section IV of the paper).

"Finally, we could easily adapt the heuristics for the CONTINUOUS model to
the VDD-HOPPING model: for a solution given by a heuristic for the
CONTINUOUS model, if a task should be executed at the continuous speed f,
then we would execute it at the two closest discrete speeds that bound f,
while matching the execution time and reliability for this task."

:func:`round_execution_to_vdd` performs that per-execution rounding:

* the two consecutive modes bracketing ``f`` are mixed so that the work and
  the execution time are preserved exactly;
* when a reliability budget is given and the convexity of the fault-rate
  function makes the mixed execution slightly *less* reliable than the
  continuous one, the mixture is shifted towards the faster mode (shortening
  the execution, which never hurts the deadline) until the failure
  probability is back within the budget.

:func:`round_schedule_to_vdd` applies it to every execution of a schedule,
and is what experiment E10 uses to quantify the performance loss of the
adaptation.
"""

from __future__ import annotations

import math

from ..core.problems import SolveResult
from ..core.reliability import ReliabilityModel
from ..core.schedule import Execution, Schedule, TaskDecision
from ..core.speeds import VddHoppingSpeeds
from ..platform.platform import Platform

__all__ = ["round_execution_to_vdd", "round_schedule_to_vdd"]


def round_execution_to_vdd(weight: float, continuous_speed: float,
                           speed_model: VddHoppingSpeeds, *,
                           reliability_model: ReliabilityModel | None = None,
                           failure_budget: float | None = None) -> Execution:
    """Round one constant-speed execution to a two-mode VDD-HOPPING execution.

    Parameters
    ----------
    failure_budget:
        Maximum admissible failure probability of this single execution.
        Only used when ``reliability_model`` is given; when the plain
        work/time-preserving mixture exceeds the budget the mixture is
        shifted towards the upper mode (the time spent at the lower mode
        solves the linear failure budget exactly).
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0:
        return Execution.at_speed(0.0, speed_model.fmax)
    f = speed_model.clamp(continuous_speed)
    lo, hi = speed_model.bracketing_speeds(f)
    intervals = speed_model.hop_split(f, weight)
    execution = Execution.from_intervals(intervals)

    if reliability_model is None or failure_budget is None:
        return execution
    if execution.failure_probability(reliability_model) <= failure_budget + 1e-15:
        return execution
    if abs(hi - lo) <= 1e-12:
        # Single mode: nothing to shift; the caller must pick a faster mode.
        return execution

    lam_lo = float(reliability_model.fault_rate(lo))
    lam_hi = float(reliability_model.fault_rate(hi))

    def failure_for_tlo(t_lo: float) -> float:
        # Work conservation fixes t_hi once t_lo is chosen.
        t_hi = (weight - lo * t_lo) / hi
        return lam_lo * t_lo + lam_hi * t_hi

    t_lo_max = next((t for s, t in intervals if abs(s - lo) <= 1e-12), 0.0)
    # failure_for_tlo is linear and increasing in t_lo (lam_lo > lam_hi and
    # the work shift is favourable), so the reliable region is an interval
    # [0, t*] with t* its root.
    if failure_for_tlo(0.0) > failure_budget + 1e-15:
        # Even running entirely at the upper mode misses the budget; return
        # the all-upper execution (the caller's reliability check will flag it).
        return Execution.from_intervals([(hi, weight / hi)])
    t_star = t_lo_max
    if failure_for_tlo(t_lo_max) > failure_budget:
        t_star = min(max((failure_budget - lam_hi * weight / hi)
                         / (lam_lo - lam_hi * lo / hi), 0.0), t_lo_max)
    t_hi = (weight - lo * t_star) / hi
    parts = []
    if t_star > 1e-15:
        parts.append((lo, t_star))
    if t_hi > 1e-15:
        parts.append((hi, t_hi))
    return Execution.from_intervals(parts)


def round_schedule_to_vdd(schedule: Schedule, vdd_platform: Platform, *,
                          reliability_model: ReliabilityModel | None = None,
                          match_reliability: bool = False) -> Schedule:
    """Round every execution of a CONTINUOUS schedule to the VDD-HOPPING model.

    The returned schedule lives on ``vdd_platform`` (which must carry a
    :class:`~repro.core.speeds.VddHoppingSpeeds` model).  Execution times are
    preserved, so the makespan -- and therefore deadline feasibility -- is
    unchanged; when ``match_reliability`` is set each execution is also kept
    within the failure budget it had under the continuous schedule.
    """
    speed_model = vdd_platform.speed_model
    if not isinstance(speed_model, VddHoppingSpeeds):
        raise TypeError("round_schedule_to_vdd needs a VddHoppingSpeeds platform")
    model = reliability_model or (
        vdd_platform.reliability() if match_reliability else None
    )
    graph = schedule.graph
    decisions = {}
    for t, decision in schedule.decisions.items():
        w = graph.weight(t)
        if w <= 0:
            decisions[t] = TaskDecision.single(t, w, vdd_platform.fmax)
            continue
        new_executions = []
        for execution in decision.executions:
            budget = None
            if match_reliability and model is not None:
                budget = execution.failure_probability(model)
            new_executions.append(
                round_execution_to_vdd(w, execution.mean_speed(), speed_model,
                                       reliability_model=model,
                                       failure_budget=budget)
            )
        decisions[t] = TaskDecision(t, tuple(new_executions))
    return Schedule(schedule.mapping, vdd_platform, decisions)

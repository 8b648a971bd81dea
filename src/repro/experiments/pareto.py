"""Energy / deadline / reliability trade-off curves.

The conclusion of the paper frames the long-term goal as exploring "the best
trade-offs that can be achieved" between execution time, energy and
reliability.  This module traces those trade-off curves for a given mapped
instance:

* :func:`energy_deadline_curve` -- the BI-CRIT Pareto front: optimal energy as
  a function of the deadline, from the tightest feasible deadline (everything
  at ``fmax``) up to a chosen slack.  Under the CONTINUOUS model the curve is
  ``E(D) ~ 1/D^2`` segments (until speed bounds clamp), which the tests check.
* :func:`energy_reliability_curve` -- the TRI-CRIT trade-off: optimal (or
  best-known) energy as a function of the reliability threshold speed
  ``f_rel``, quantifying the price of reliability for a fixed deadline.
* :func:`pareto_filter` -- generic non-dominated filtering used by both.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from ..api import default_engine
from ..core.problems import BiCritProblem, TriCritProblem
from ..core.reliability import ReliabilityModel
from ..continuous.exhaustive import best_known_tricrit
from ..platform.mapping import Mapping
from ..platform.platform import Platform

__all__ = [
    "ParetoPoint",
    "pareto_filter",
    "energy_deadline_curve",
    "energy_reliability_curve",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One point of a trade-off curve."""

    deadline: float
    energy: float
    reliability_speed: float | None = None
    num_reexecuted: int = 0
    feasible: bool = True


def pareto_filter(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Keep the non-dominated points (smaller deadline and smaller energy win)."""
    kept: list[ParetoPoint] = []
    for p in sorted(points, key=lambda q: (q.deadline, q.energy)):
        if not p.feasible:
            continue
        if kept and kept[-1].energy <= p.energy + 1e-12:
            continue
        kept.append(p)
    return kept


def energy_deadline_curve(mapping: Mapping, platform: Platform, *,
                          slacks: Sequence[float] = (1.0, 1.2, 1.5, 2.0, 3.0, 4.0),
                          solver: Callable[[BiCritProblem], object] | None = None
                          ) -> list[ParetoPoint]:
    """Optimal energy as a function of the deadline (BI-CRIT Pareto front).

    ``slacks`` multiply the tightest feasible deadline (the makespan of the
    mapping at ``fmax``).  A custom ``solver`` taking a
    :class:`BiCritProblem` can be supplied to trace the curve under a
    discrete model (e.g. the VDD-HOPPING LP); it defaults to the shared
    :func:`repro.api.default_engine`, whose exact-first auto-dispatch also
    handles discrete platforms and serves repeated sweeps from its result
    cache.  With the default dispatch the whole deadline sweep is one
    batched submit (one grouped array program); a custom ``solver``
    callable is called per point.
    """
    graph = mapping.graph
    augmented = mapping.augmented_graph()
    finish: dict = {}
    for t in augmented.topological_order():
        s = max((finish[p] for p in augmented.predecessors(t)), default=0.0)
        finish[t] = s + graph.weight(t) / platform.fmax
    base = max(finish.values(), default=0.0)

    deadlines = [slack * base for slack in slacks]
    problems = [BiCritProblem(mapping, platform, deadline)
                for deadline in deadlines]
    if solver is not None:
        results: Sequence[object] = [solver(problem) for problem in problems]
    else:
        results = [r for r, _ in default_engine().submit_batch(problems)]

    points = []
    for deadline, result in zip(deadlines, results):
        feasible = getattr(result, "feasible", False)
        energy = getattr(result, "energy", float("inf"))
        points.append(ParetoPoint(deadline=deadline, energy=energy,
                                  feasible=bool(feasible)))
    return points


def energy_reliability_curve(mapping: Mapping, platform: Platform, deadline: float, *,
                             frel_values: Sequence[float] | None = None,
                             lambda0: float = 1e-4, sensitivity: float = 3.0,
                             exhaustive_limit: int = 8) -> list[ParetoPoint]:
    """Best-known TRI-CRIT energy as a function of the reliability threshold.

    ``frel_values`` defaults to an even sweep from ``fmin`` (no effective
    reliability constraint beyond feasibility) to ``fmax`` (the strictest
    threshold).  Larger ``f_rel`` means a stricter constraint, hence
    (weakly) larger energy -- the price of reliability.
    """
    if frel_values is None:
        frel_values = np.linspace(platform.fmin, platform.fmax, 5)
    points = []
    for frel in frel_values:
        model = ReliabilityModel(fmin=platform.fmin, fmax=platform.fmax,
                                 lambda0=lambda0, sensitivity=sensitivity,
                                 frel=float(frel))
        problem = TriCritProblem(mapping, platform, deadline,
                                 reliability_model=model)
        result = best_known_tricrit(problem, exhaustive_limit=exhaustive_limit)
        schedule = result.schedule
        points.append(ParetoPoint(
            deadline=deadline,
            energy=result.energy,
            reliability_speed=float(frel),
            num_reexecuted=schedule.num_reexecuted() if schedule is not None else 0,
            feasible=result.feasible,
        ))
    return points

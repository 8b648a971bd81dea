"""Structural analysis of task graphs used by mappers, heuristics and bounds.

These are the classic quantities of DAG scheduling:

* *top level* ``tl(T)``: longest (weight-)path ending just before ``T`` --
  the earliest time ``T`` could start when running every task at unit speed
  on infinitely many processors;
* *bottom level* ``bl(T)``: longest path starting at ``T`` and including it
  -- the classic priority of critical-path list scheduling;
* *levels* (depth layers), *slack*, parallelism profile, and makespan /
  energy lower bounds derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from .taskgraph import TaskGraph, TaskId

__all__ = [
    "top_levels",
    "bottom_levels",
    "depth_layers",
    "slack",
    "parallelism_profile",
    "max_parallelism",
    "makespan_lower_bound",
    "energy_lower_bound",
    "GraphSummary",
    "summarize",
]


def top_levels(graph: TaskGraph) -> dict[TaskId, float]:
    """Longest weighted path strictly before each task (0 for sources)."""
    tl: dict[TaskId, float] = {}
    for t in graph.topological_order():
        preds = graph.predecessors(t)
        tl[t] = max((tl[p] + graph.weight(p) for p in preds), default=0.0)
    return tl


def bottom_levels(graph: TaskGraph) -> dict[TaskId, float]:
    """Longest weighted path starting at each task, including its own weight."""
    bl: dict[TaskId, float] = {}
    for t in reversed(graph.topological_order()):
        succs = graph.successors(t)
        bl[t] = graph.weight(t) + max((bl[s] for s in succs), default=0.0)
    return bl


def depth_layers(graph: TaskGraph) -> list[list[TaskId]]:
    """Partition of tasks into precedence layers (layer 0 = sources)."""
    depth: dict[TaskId, int] = {}
    for t in graph.topological_order():
        preds = graph.predecessors(t)
        depth[t] = max((depth[p] + 1 for p in preds), default=0)
    if not depth:
        return []
    layers: list[list[TaskId]] = [[] for _ in range(max(depth.values()) + 1)]
    for t, d in depth.items():
        layers[d].append(t)
    return layers


def slack(graph: TaskGraph, deadline: float | None = None) -> dict[TaskId, float]:
    """Scheduling slack of each task at unit speed.

    ``slack(T) = horizon - tl(T) - bl(T)`` where ``horizon`` is the deadline
    when given, otherwise the critical-path weight.  Tasks on a critical
    path have zero slack (when the horizon is the critical-path weight).
    """
    tl = top_levels(graph)
    bl = bottom_levels(graph)
    horizon = deadline if deadline is not None else graph.critical_path_weight()
    return {t: horizon - tl[t] - bl[t] for t in graph.tasks()}


def parallelism_profile(graph: TaskGraph) -> list[int]:
    """Number of tasks per depth layer -- a cheap parallelism signature."""
    return [len(layer) for layer in depth_layers(graph)]


def max_parallelism(graph: TaskGraph) -> int:
    """Maximum width over the depth layers (upper-bounded by true parallelism)."""
    profile = parallelism_profile(graph)
    return max(profile) if profile else 0


def makespan_lower_bound(graph: TaskGraph, num_processors: int, fmax: float) -> float:
    """Classic two-part lower bound on the makespan at speed ``fmax``.

    The makespan of any schedule on ``p`` processors running at most at
    ``fmax`` is at least the critical-path time and at least the total-work
    time ``W / (p * fmax)``.
    """
    if num_processors < 1:
        raise ValueError("need at least one processor")
    if fmax <= 0:
        raise ValueError("fmax must be positive")
    cp = graph.critical_path_weight() / fmax
    area = graph.total_weight() / (num_processors * fmax)
    return max(cp, area)


def energy_lower_bound(graph: TaskGraph, deadline: float, *,
                       exponent: float = 3.0) -> float:
    """Lower bound on energy for any schedule meeting ``deadline``.

    Every task must individually finish within the deadline, so task ``i``
    consumes at least ``w_i^a / D^{a-1}``... summing that is weak; a better
    and still universally valid bound uses the critical path: the tasks of a
    weight-maximal path are serialised, hence consume at least
    ``(sum of their weights)^a / D^{a-1}``.  The returned value is the
    maximum of the per-task bound sum restricted to the critical path and
    the all-tasks individual bound.
    """
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    weights = np.array(list(graph.weights().values()), dtype=float)
    # Speed form w * (w/D)^(a-1): no 0/0 underflow for tiny w and D.
    individual = float(np.sum(weights * (weights / deadline) ** (exponent - 1.0)))
    cp_weight = graph.critical_path_weight()
    cp_bound = cp_weight * (cp_weight / deadline) ** (exponent - 1.0)
    return max(individual, cp_bound)


@dataclass(frozen=True)
class GraphSummary:
    """Compact structural signature of a task graph, used in reports."""

    num_tasks: int
    num_edges: int
    total_weight: float
    critical_path_weight: float
    depth: int
    max_width: int
    is_chain: bool
    is_fork: bool

    @property
    def parallelism_ratio(self) -> float:
        """Total weight divided by critical-path weight (average parallelism)."""
        if self.critical_path_weight == 0:
            return 0.0
        return self.total_weight / self.critical_path_weight


def summarize(graph: TaskGraph) -> GraphSummary:
    """Build the :class:`GraphSummary` of a task graph."""
    layers = depth_layers(graph)
    return GraphSummary(
        num_tasks=graph.num_tasks,
        num_edges=graph.num_edges,
        total_weight=graph.total_weight(),
        critical_path_weight=graph.critical_path_weight(),
        depth=len(layers),
        max_width=max((len(l) for l in layers), default=0),
        is_chain=graph.is_chain(),
        is_fork=graph.is_fork()[0],
    )

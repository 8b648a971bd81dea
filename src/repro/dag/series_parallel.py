"""Series-parallel task graphs: construction, recognition and decomposition.

The paper's closed-form results for the BI-CRIT CONTINUOUS problem apply to
"special execution graph structures (trees, series-parallel graphs)".  This
module defines the series-parallel (SP) decomposition tree used by the
closed-form solver in :mod:`repro.continuous.closed_form`:

* :class:`SPLeaf` -- a single task,
* :class:`SPSeries` -- sequential composition (every sink of the left part
  precedes every source of the right part),
* :class:`SPParallel` -- parallel composition (disjoint union, the branches
  run concurrently on disjoint processor sets).

The composition here is on *tasks* (node-weighted SP graphs), matching the
paper's model where weights sit on tasks, not edges.  A fork with source
``T0`` and children ``T1..Tn`` is ``Series(Leaf(T0), Parallel(T1, ..., Tn))``
and a fork-join adds a trailing ``Leaf(sink)`` to the series.

:func:`decompose` recognises whether a :class:`TaskGraph` is series-parallel
in this sense and returns its decomposition tree; :func:`is_series_parallel`
is the boolean convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .taskgraph import TaskGraph, TaskId

__all__ = [
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "NotSeriesParallelError",
    "sp_tree_to_taskgraph",
    "decompose",
    "is_series_parallel",
    "sp_leaves",
    "sp_depth",
]


class NotSeriesParallelError(ValueError):
    """Raised when a task graph is not series-parallel."""


@dataclass(frozen=True)
class SPLeaf:
    """Decomposition-tree leaf: a single task."""

    task_id: TaskId
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("task weight must be non-negative")


@dataclass(frozen=True)
class SPSeries:
    """Sequential composition of two or more SP sub-structures."""

    children: tuple["SPNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("a series composition needs at least two children")


@dataclass(frozen=True)
class SPParallel:
    """Parallel composition of two or more SP sub-structures."""

    children: tuple["SPNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("a parallel composition needs at least two children")


SPNode = SPLeaf | SPSeries | SPParallel


# ----------------------------------------------------------------------
# SP tree -> TaskGraph
# ----------------------------------------------------------------------
def sp_tree_to_taskgraph(tree: SPNode) -> TaskGraph:
    """Materialise a decomposition tree into a :class:`TaskGraph`."""
    weights: dict[TaskId, float] = {}
    edges: list[tuple[TaskId, TaskId]] = []

    def build(node: SPNode) -> tuple[list[TaskId], list[TaskId]]:
        """Return (sources, sinks) of the materialised subgraph."""
        if isinstance(node, SPLeaf):
            if node.task_id in weights:
                raise ValueError(f"duplicate task id {node.task_id!r} in SP tree")
            weights[node.task_id] = float(node.weight)
            return [node.task_id], [node.task_id]
        if isinstance(node, SPSeries):
            first_sources: list[TaskId] | None = None
            prev_sinks: list[TaskId] | None = None
            for child in node.children:
                c_sources, c_sinks = build(child)
                if prev_sinks is not None:
                    edges.extend((u, v) for u in prev_sinks for v in c_sources)
                if first_sources is None:
                    first_sources = c_sources
                prev_sinks = c_sinks
            assert first_sources is not None and prev_sinks is not None
            return first_sources, prev_sinks
        if isinstance(node, SPParallel):
            sources: list[TaskId] = []
            sinks: list[TaskId] = []
            for child in node.children:
                c_sources, c_sinks = build(child)
                sources.extend(c_sources)
                sinks.extend(c_sinks)
            return sources, sinks
        raise TypeError(f"unknown SP node type: {type(node)!r}")

    build(tree)
    return TaskGraph(weights, edges)


# ----------------------------------------------------------------------
# TaskGraph -> SP tree (recognition / decomposition)
# ----------------------------------------------------------------------
def decompose(graph: TaskGraph) -> SPNode:
    """Decompose a task graph into its series-parallel tree.

    Raises :class:`NotSeriesParallelError` when the graph is not
    series-parallel under the node-composition semantics described in the
    module docstring.

    The algorithm is recursive:

    1. a single task is a leaf;
    2. a weakly disconnected graph is the parallel composition of its
       components;
    3. otherwise the graph must admit a *series cut*: a proper prefix ``A``
       of a topological order such that the crossing edges from ``A`` to the
       remainder ``B`` are exactly ``sinks(A) x sources(B)``.  If a cut
       exists, the graph is ``Series(decompose(A), decompose(B))``;
       otherwise the graph is not series-parallel.

    Correctness of the prefix search relies on the fact that in a series
    composition every task of the first part is an ancestor of every source
    of the second part, hence precedes the whole second part in every
    topological order.
    """
    n = graph.num_tasks
    if n == 0:
        raise NotSeriesParallelError("empty graph has no decomposition")
    if n == 1:
        (task_id,) = graph.tasks()
        return SPLeaf(task_id, graph.weight(task_id))

    components = graph.components()
    if len(components) > 1:
        children = tuple(
            decompose(graph.subgraph(component)) for component in components
        )
        return _flatten_parallel(children)

    topo = graph.topological_order()
    prefix: set[TaskId] = set()
    for cut in range(1, n):
        prefix.add(topo[cut - 1])
        if _is_series_cut(graph, prefix):
            left = decompose(graph.subgraph(prefix))
            right = decompose(graph.subgraph(set(topo[cut:])))
            return _flatten_series((left, right))
    raise NotSeriesParallelError(
        "graph is connected but admits no series cut; it is not series-parallel"
    )


def _is_series_cut(graph: TaskGraph, prefix: set[TaskId]) -> bool:
    """Check whether ``prefix`` induces a valid series cut of ``graph``."""
    rest = [t for t in graph.tasks() if t not in prefix]
    if not rest:
        return False
    crossing = [(u, v) for u, v in graph.edges() if u in prefix and v not in prefix]
    if not crossing:
        return False
    # sinks of the prefix subgraph and sources of the suffix subgraph
    prefix_sinks = {
        t for t in prefix if all(s not in prefix for s in graph.successors(t))
    }
    # Sources of the suffix: tasks whose predecessors (if any) all lie in the
    # prefix.  A suffix source with no predecessors at all cannot appear in a
    # valid series cut because the bipartite-completeness check below would
    # then require an edge from every prefix sink to it.
    rest_sources = {
        t for t in rest if all(p in prefix for p in graph.predecessors(t))
    }
    expected = {(u, v) for u in prefix_sinks for v in rest_sources}
    return set(crossing) == expected and len(expected) > 0


def _flatten_series(children: Sequence[SPNode]) -> SPSeries:
    """Merge nested series nodes into a single n-ary series node."""
    flat: list[SPNode] = []
    for child in children:
        if isinstance(child, SPSeries):
            flat.extend(child.children)
        else:
            flat.append(child)
    return SPSeries(tuple(flat))


def _flatten_parallel(children: Sequence[SPNode]) -> SPParallel:
    """Merge nested parallel nodes into a single n-ary parallel node."""
    flat: list[SPNode] = []
    for child in children:
        if isinstance(child, SPParallel):
            flat.extend(child.children)
        else:
            flat.append(child)
    return SPParallel(tuple(flat))


def is_series_parallel(graph: TaskGraph) -> bool:
    """``True`` when :func:`decompose` succeeds on ``graph``."""
    try:
        decompose(graph)
    except NotSeriesParallelError:
        return False
    return True


# ----------------------------------------------------------------------
# SP-tree utilities
# ----------------------------------------------------------------------
def sp_leaves(tree: SPNode) -> list[SPLeaf]:
    """All leaves of a decomposition tree, left to right."""
    if isinstance(tree, SPLeaf):
        return [tree]
    result: list[SPLeaf] = []
    for child in tree.children:
        result.extend(sp_leaves(child))
    return result


def sp_depth(tree: SPNode) -> int:
    """Depth of the decomposition tree (a leaf has depth 1)."""
    if isinstance(tree, SPLeaf):
        return 1
    return 1 + max(sp_depth(child) for child in tree.children)

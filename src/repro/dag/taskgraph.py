"""Weighted task graphs (DAGs) -- the application model of the paper.

An application consists of ``n`` tasks ``T_1 ... T_n`` with dependence
constraints forming a directed acyclic graph; task ``T_i`` carries a weight
``w_i`` equal to its computation requirement.  :class:`TaskGraph` keeps the
graph as insertion-ordered dict adjacency and adds the operations the
scheduling algorithms need: weight access, topological iteration,
critical-path computation, structural queries (chain / fork / join
detection) and immutability-friendly copies.  networkx is only imported by
the :meth:`TaskGraph.graph` / :meth:`TaskGraph.from_networkx` bridges.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - the bridge types only
    import networkx as nx

__all__ = ["TaskGraph", "Task"]

TaskId = Hashable


@dataclass(frozen=True)
class Task:
    """A single task: identifier plus computational weight."""

    task_id: TaskId
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"task weight must be non-negative, got {self.weight}")


class TaskGraph:
    """A weighted directed acyclic task graph.

    Parameters
    ----------
    weights:
        Mapping from task identifier to computational weight ``w_i > 0``.
    edges:
        Iterable of ``(u, v)`` precedence constraints meaning ``u`` must
        complete before ``v`` starts.  A repeated edge counts once.

    The constructor validates acyclicity and that every edge endpoint has a
    weight.  Tasks keep the order of ``weights``; each task's predecessors
    and successors keep the order their edges arrived in.
    """

    def __init__(self, weights: Mapping[TaskId, float],
                 edges: Iterable[tuple[TaskId, TaskId]] = ()) -> None:
        weight: dict[TaskId, float] = {}
        for task_id, w in weights.items():
            w = float(w)
            if w < 0 or not math.isfinite(w):
                raise ValueError(
                    f"task {task_id!r} has invalid weight {w}; weights must be finite and >= 0"
                )
            weight[task_id] = w
        # dict-of-dict adjacency: the inner dicts are insertion-ordered sets.
        pred: dict[TaskId, dict[TaskId, None]] = {t: {} for t in weight}
        succ: dict[TaskId, dict[TaskId, None]] = {t: {} for t in weight}
        num_edges = 0
        for u, v in edges:
            if u not in weight or v not in weight:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown task")
            if u == v:
                raise ValueError(f"self-loop on task {u!r}")
            if v not in succ[u]:
                succ[u][v] = None
                pred[v][u] = None
                num_edges += 1
        self._weight = weight
        self._pred = pred
        self._succ = succ
        self._num_edges = num_edges
        order = self._lexicographic_order()
        if len(order) < len(weight):
            raise ValueError(f"task graph contains a cycle: {self._cycle(order)}")
        self._topo = tuple(order)

    def _lexicographic_order(self) -> list[TaskId]:
        """Kahn's algorithm, always taking the ready task with the smallest
        ``(str(id), insertion index)``.

        This is ``networkx.lexicographical_topological_sort(key=str)``: the
        order depends on the ids' strings, never on their hashes.  On a
        cyclic graph the order stops short of the tasks on or after a cycle.
        """
        index = {t: i for i, t in enumerate(self._weight)}
        indegree = {t: len(p) for t, p in self._pred.items()}
        ready = [(str(t), index[t], t) for t, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            t = heapq.heappop(ready)[2]
            order.append(t)
            for child in self._succ[t]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, (str(child), index[child], child))
        return order

    def _cycle(self, order: Sequence[TaskId]) -> list[tuple[TaskId, TaskId]]:
        """One cycle among the tasks ``order`` left out, as its edges.

        Every left-out task keeps a left-out predecessor, so walking
        backwards from one must revisit a task ``t``; the walk since ``t``'s
        first visit, reversed, is a cycle through ``t``.
        """
        done = set(order)
        step = {t: next(p for p in preds if p not in done)
                for t, preds in self._pred.items() if t not in done}
        walk: dict[TaskId, None] = {}
        t = next(iter(step))
        while t not in walk:
            walk[t] = None
            t = step[t]
        path = list(walk)
        loop = [t, *reversed(path[path.index(t) + 1:])]
        return list(zip(loop, loop[1:] + loop[:1]))

    # ------------------------------------------------------------------
    # constructors and the networkx bridge
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph: nx.DiGraph, *, weight_attr: str = "weight") -> "TaskGraph":
        """Build a :class:`TaskGraph` from an existing networkx DiGraph."""
        weights = {}
        for node, data in graph.nodes(data=True):
            if weight_attr not in data:
                raise ValueError(f"node {node!r} is missing the {weight_attr!r} attribute")
            weights[node] = float(data[weight_attr])
        return cls(weights, graph.edges())

    @property
    def graph(self) -> nx.DiGraph:
        """A new networkx DiGraph of the tasks (``weight`` attribute) and edges.

        networkx is imported here, on first use, not with this module.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from((t, {"weight": w}) for t, w in self._weight.items())
        g.add_edges_from(self.edges())
        return g

    def copy(self) -> "TaskGraph":
        """Deep copy of the task graph."""
        return TaskGraph(dict(self.weights()), list(self.edges()))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._weight)

    def __contains__(self, task_id: Any) -> bool:
        try:
            return task_id in self._weight
        except TypeError:  # an unhashable id is no task
            return False

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._weight)

    @property
    def num_tasks(self) -> int:
        return len(self._weight)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def tasks(self) -> list[TaskId]:
        """All task identifiers (insertion order)."""
        return list(self._weight)

    def weight(self, task_id: TaskId) -> float:
        """Weight ``w_i`` of a task."""
        return self._weight[task_id]

    def weights(self) -> dict[TaskId, float]:
        """Mapping of all task weights."""
        return dict(self._weight)

    def weight_array(self, order: Sequence[TaskId] | None = None) -> np.ndarray:
        """Weights as a NumPy array, in ``order`` (default: topological)."""
        ids = self._topo if order is None else order
        return np.array([self._weight[t] for t in ids], dtype=float)

    def total_weight(self) -> float:
        """Sum of all task weights."""
        return float(sum(self._weight.values()))

    def edges(self) -> list[tuple[TaskId, TaskId]]:
        """All edges, grouped by source task in task order."""
        return [(u, v) for u, succs in self._succ.items() for v in succs]

    def predecessors(self, task_id: TaskId) -> list[TaskId]:
        return list(self._pred[task_id])

    def successors(self, task_id: TaskId) -> list[TaskId]:
        return list(self._succ[task_id])

    def sources(self) -> list[TaskId]:
        """Tasks without predecessors (entry tasks)."""
        return [t for t, preds in self._pred.items() if not preds]

    def sinks(self) -> list[TaskId]:
        """Tasks without successors (exit tasks)."""
        return [t for t, succs in self._succ.items() if not succs]

    # ------------------------------------------------------------------
    # orderings, reachability and paths
    # ------------------------------------------------------------------
    def topological_order(self) -> list[TaskId]:
        """A deterministic topological ordering (lexicographic tie-break)."""
        return list(self._topo)

    def ancestors(self, task_id: TaskId) -> set[TaskId]:
        """Tasks with a path to ``task_id``."""
        return _reachable(self._pred, task_id)

    def descendants(self, task_id: TaskId) -> set[TaskId]:
        """Tasks reachable from ``task_id``."""
        return _reachable(self._succ, task_id)

    def components(self) -> list[list[TaskId]]:
        """Weakly connected components, each found by a BFS.

        Components come in the order of their first task; each lists its
        tasks in the BFS order from that task.
        """
        seen: set[TaskId] = set()
        found = []
        for start in self._weight:
            if start in seen:
                continue
            seen.add(start)
            frontier = [start]
            for t in frontier:      # grows while it is walked: a BFS queue
                for nbr in (*self._pred[t], *self._succ[t]):
                    if nbr not in seen:
                        seen.add(nbr)
                        frontier.append(nbr)
            found.append(frontier)
        return found

    def critical_path_weight(self) -> float:
        """Maximum total weight over all paths (the *critical path*).

        Under the CONTINUOUS model at ``fmax`` this is a lower bound on the
        achievable makespan: ``D >= critical_path_weight() / fmax``.
        """
        longest: dict[TaskId, float] = {}
        for t in self.topological_order():
            preds = self.predecessors(t)
            best = max((longest[p] for p in preds), default=0.0)
            longest[t] = best + self.weight(t)
        return max(longest.values(), default=0.0)

    def critical_path(self) -> list[TaskId]:
        """A maximum-weight path, as a list of tasks from a source to a sink."""
        longest: dict[TaskId, float] = {}
        choice: dict[TaskId, TaskId | None] = {}
        for t in self.topological_order():
            preds = self.predecessors(t)
            if preds:
                best_pred = max(preds, key=lambda p: longest[p])
                longest[t] = longest[best_pred] + self.weight(t)
                choice[t] = best_pred
            else:
                longest[t] = self.weight(t)
                choice[t] = None
        if not longest:
            return []
        end = max(longest, key=lambda t: longest[t])
        path = [end]
        while choice[path[-1]] is not None:
            path.append(choice[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def is_chain(self) -> bool:
        """True when the graph is a single linear chain of tasks."""
        if self.num_tasks == 0:
            return False
        if self.num_tasks == 1:
            return True
        pred, succ = self._pred, self._succ
        degrees_ok = all(len(pred[t]) <= 1 and len(succ[t]) <= 1 for t in pred)
        # With all degrees <= 1, an *acyclic* graph (guaranteed by the
        # constructor) is a disjoint union of paths, and a union of k paths
        # on n nodes has exactly n - k edges -- so n - 1 edges means one
        # connected path; no separate connectivity scan is needed.
        return degrees_ok and self.num_edges == self.num_tasks - 1

    def is_fork(self) -> tuple[bool, TaskId | None]:
        """Is the graph a fork (one source with edges to all other tasks)?

        Returns ``(True, source)`` for a fork with at least one child, or a
        single isolated task (degenerate fork with zero children); otherwise
        ``(False, None)``.
        """
        if self.num_tasks == 0:
            return False, None
        pred, succ = self._pred, self._succ
        sources = [t for t, p in pred.items() if not p]
        if len(sources) != 1:
            return False, None
        src = sources[0]
        for t, p in pred.items():
            if t == src:
                continue
            if len(p) != 1 or src not in p or succ[t]:
                return False, None
        if len(succ[src]) != self.num_tasks - 1:
            return False, None
        return True, src

    def is_join(self) -> tuple[bool, TaskId | None]:
        """Is the graph a join (all tasks feed one sink)?  Mirror of a fork."""
        if self.num_tasks == 0:
            return False, None
        pred, succ = self._pred, self._succ
        sinks = [t for t, s in succ.items() if not s]
        if len(sinks) != 1:
            return False, None
        sink = sinks[0]
        for t, s in succ.items():
            if t == sink:
                continue
            if len(s) != 1 or sink not in s or pred[t]:
                return False, None
        if len(pred[sink]) != self.num_tasks - 1:
            return False, None
        return True, sink

    def chain_order(self) -> list[TaskId]:
        """Tasks of a chain graph in execution order (raises if not a chain)."""
        if not self.is_chain():
            raise ValueError("graph is not a linear chain")
        return self.topological_order()

    def reversed(self) -> "TaskGraph":
        """Graph with all edges reversed (used by the join closed form)."""
        return TaskGraph(self.weights(), [(v, u) for u, v in self.edges()])

    # ------------------------------------------------------------------
    # mutation-by-copy helpers
    # ------------------------------------------------------------------
    def with_weights(self, new_weights: Mapping[TaskId, float]) -> "TaskGraph":
        """Copy of the graph with some task weights replaced."""
        weights = self.weights()
        for t, w in new_weights.items():
            if t not in weights:
                raise KeyError(f"unknown task {t!r}")
            weights[t] = float(w)
        return TaskGraph(weights, self.edges())

    def subgraph(self, task_ids: Iterable[TaskId]) -> "TaskGraph":
        """Induced subgraph on the given tasks."""
        keep = set(task_ids)
        unknown = keep - self._weight.keys()
        if unknown:
            raise KeyError(f"unknown tasks: {sorted(map(str, unknown))}")
        weights = {t: w for t, w in self._weight.items() if t in keep}
        edges = [(u, v) for u, v in self.edges() if u in keep and v in keep]
        return TaskGraph(weights, edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph(n={self.num_tasks}, m={self.num_edges}, W={self.total_weight():.3g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self.weights() == other.weights()
            and set(self.edges()) == set(other.edges())
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(
            (frozenset(self.weights().items()), frozenset(self.edges()))
        )


def _reachable(adjacency: Mapping[TaskId, Mapping[TaskId, None]],
               start: TaskId) -> set[TaskId]:
    """Tasks reachable from ``start`` along ``adjacency`` (a DFS), without it."""
    if start not in adjacency:
        raise KeyError(f"unknown task {start!r}")
    seen: set[TaskId] = set()
    stack = [start]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen

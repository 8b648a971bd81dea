"""Weighted task graphs (DAGs) -- the application model of the paper.

An application consists of ``n`` tasks ``T_1 ... T_n`` with dependence
constraints forming a directed acyclic graph; task ``T_i`` carries a weight
``w_i`` equal to its computation requirement.  :class:`TaskGraph` wraps a
:class:`networkx.DiGraph` and adds the operations the scheduling algorithms
need: weight access, topological iteration, critical-path computation,
structural queries (chain / fork / join detection) and immutability-friendly
copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np

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
        complete before ``v`` starts.

    The constructor validates acyclicity and that every edge endpoint has a
    weight.
    """

    def __init__(self, weights: Mapping[TaskId, float],
                 edges: Iterable[tuple[TaskId, TaskId]] = ()) -> None:
        g = nx.DiGraph()
        for task_id, w in weights.items():
            w = float(w)
            if w < 0 or not math.isfinite(w):
                raise ValueError(
                    f"task {task_id!r} has invalid weight {w}; weights must be finite and >= 0"
                )
            g.add_node(task_id, weight=w)
        for u, v in edges:
            if u not in g or v not in g:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown task")
            if u == v:
                raise ValueError(f"self-loop on task {u!r}")
            g.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise ValueError(f"task graph contains a cycle: {cycle}")
        self._g = g
        self._topo_cache: tuple[TaskId, ...] | None = None

    # ------------------------------------------------------------------
    # constructors
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

    def copy(self) -> "TaskGraph":
        """Deep copy of the task graph."""
        return TaskGraph(dict(self.weights()), list(self.edges()))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """Underlying networkx graph (treat as read-only)."""
        return self._g

    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._g

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._g.nodes())

    @property
    def num_tasks(self) -> int:
        return self._g.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    def tasks(self) -> list[TaskId]:
        """All task identifiers (insertion order)."""
        return list(self._g.nodes())

    def weight(self, task_id: TaskId) -> float:
        """Weight ``w_i`` of a task."""
        return float(self._g.nodes[task_id]["weight"])

    def weights(self) -> dict[TaskId, float]:
        """Mapping of all task weights."""
        return {t: float(d["weight"]) for t, d in self._g._node.items()}

    def weight_array(self, order: Sequence[TaskId] | None = None) -> np.ndarray:
        """Weights as a NumPy array, in ``order`` (default: topological)."""
        ids = list(order) if order is not None else self.topological_order()
        return np.array([self.weight(t) for t in ids], dtype=float)

    def total_weight(self) -> float:
        """Sum of all task weights."""
        return float(sum(d["weight"] for d in self._g._node.values()))

    def edges(self) -> list[tuple[TaskId, TaskId]]:
        return list(self._g.edges())

    def predecessors(self, task_id: TaskId) -> list[TaskId]:
        return list(self._g.predecessors(task_id))

    def successors(self, task_id: TaskId) -> list[TaskId]:
        return list(self._g.successors(task_id))

    def sources(self) -> list[TaskId]:
        """Tasks without predecessors (entry tasks)."""
        # Raw adjacency dicts: these probes run once per solver dispatch,
        # and the networkx degree/adjacency views cost more than the whole
        # closed form they gate.
        return [t for t, preds in self._g._pred.items() if not preds]

    def sinks(self) -> list[TaskId]:
        """Tasks without successors (exit tasks)."""
        return [t for t, succs in self._g._succ.items() if not succs]

    # ------------------------------------------------------------------
    # orderings and paths
    # ------------------------------------------------------------------
    def topological_order(self) -> list[TaskId]:
        """A deterministic topological ordering (lexicographic tie-break)."""
        if self._topo_cache is None:
            try:
                order = list(nx.lexicographical_topological_sort(self._g, key=str))
            except TypeError:  # pragma: no cover - heterogeneous unorderable ids
                order = list(nx.topological_sort(self._g))
            self._topo_cache = tuple(order)
        return list(self._topo_cache)

    def ancestors(self, task_id: TaskId) -> set[TaskId]:
        return set(nx.ancestors(self._g, task_id))

    def descendants(self, task_id: TaskId) -> set[TaskId]:
        return set(nx.descendants(self._g, task_id))

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
        pred, succ = self._g._pred, self._g._succ
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
        pred, succ = self._g._pred, self._g._succ
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
        pred, succ = self._g._pred, self._g._succ
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
        unknown = keep - set(self._g.nodes())
        if unknown:
            raise KeyError(f"unknown tasks: {sorted(map(str, unknown))}")
        weights = {t: self.weight(t) for t in self._g.nodes() if t in keep}
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

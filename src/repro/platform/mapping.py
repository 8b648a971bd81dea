"""Task-to-processor mappings.

The paper assumes "the mapping is given, say by an ordered list of tasks to
execute on each processor": finding the mapping itself is the classical
NP-complete makespan problem, so the energy optimisation starts from a fixed
allocation and ordering, and only the speeds (and re-executions) remain to be
chosen.

:class:`Mapping` stores, for each processor, the ordered list of tasks it
executes.  The key derived object is the *augmented graph*
(:meth:`Mapping.augmented_graph`): the original precedence DAG plus an edge
between consecutive tasks of each processor.  All makespan computations of
the solvers reduce to longest-path computations on that DAG, and a mapping is
valid iff the augmented graph is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Hashable, Mapping as TMapping, Sequence
from typing import Any, TypeVar

from ..dag.taskgraph import TaskGraph, TaskId

__all__ = ["Mapping", "InvalidMappingError"]

_T = TypeVar("_T")


class InvalidMappingError(ValueError):
    """Raised when a mapping is inconsistent with the task graph."""


class Mapping:
    """Ordered assignment of every task to exactly one processor.

    Parameters
    ----------
    assignment:
        Sequence of ordered task lists, one per processor.  ``assignment[k]``
        lists the tasks processor ``k`` executes, in execution order.
    graph:
        The task graph the mapping refers to; used for validation and for
        building the augmented graph.
    """

    def __init__(self, assignment: Sequence[Sequence[TaskId]], graph: TaskGraph) -> None:
        self._lists: tuple[tuple[TaskId, ...], ...] = tuple(
            tuple(proc_tasks) for proc_tasks in assignment
        )
        self._graph = graph
        self._processor_of: dict[TaskId, int] = {}
        self._position_of: dict[TaskId, int] = {}
        for proc, tasks in enumerate(self._lists):
            for pos, t in enumerate(tasks):
                if t not in graph:
                    raise InvalidMappingError(f"mapped task {t!r} is not in the graph")
                if t in self._processor_of:
                    raise InvalidMappingError(f"task {t!r} is mapped twice")
                self._processor_of[t] = proc
                self._position_of[t] = pos
        missing = set(graph.tasks()) - set(self._processor_of)
        if missing:
            raise InvalidMappingError(
                f"tasks not mapped to any processor: {sorted(map(str, missing))}"
            )
        self._augmented: TaskGraph | None = None
        self._compiled: dict[Hashable, Any] = {}
        # Validate acyclicity eagerly: building the augmented graph raises if
        # the processor orderings contradict the precedence constraints.
        self.augmented_graph()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_processor(cls, graph: TaskGraph, order: Sequence[TaskId] | None = None) -> "Mapping":
        """Everything on one processor, by default in topological order."""
        order = list(order) if order is not None else graph.topological_order()
        return cls([order], graph)

    @classmethod
    def one_task_per_processor(cls, graph: TaskGraph) -> "Mapping":
        """Fully parallel mapping: each task gets its own processor.

        Tasks are assigned in topological order so processor 0 always holds
        the first source; this is the natural mapping for fork/join closed
        forms where every branch runs on a dedicated processor.
        """
        return cls([[t] for t in graph.topological_order()], graph)

    @classmethod
    def from_processor_of(cls, graph: TaskGraph, processor_of: TMapping[TaskId, int],
                          num_processors: int | None = None) -> "Mapping":
        """Build a mapping from a task->processor dictionary.

        The per-processor order is the topological order of the graph, which
        is always consistent with the precedence constraints.
        """
        if num_processors is None:
            num_processors = (max(processor_of.values()) + 1) if processor_of else 1
        lists: list[list[TaskId]] = [[] for _ in range(num_processors)]
        for t in graph.topological_order():
            if t not in processor_of:
                raise InvalidMappingError(f"task {t!r} has no processor assignment")
            proc = processor_of[t]
            if not (0 <= proc < num_processors):
                raise InvalidMappingError(
                    f"task {t!r} assigned to processor {proc} outside 0..{num_processors - 1}"
                )
            lists[proc].append(t)
        return cls(lists, graph)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def num_processors(self) -> int:
        return len(self._lists)

    def tasks_on(self, processor: int) -> tuple[TaskId, ...]:
        """Ordered tasks of one processor."""
        return self._lists[processor]

    def processor_of(self, task_id: TaskId) -> int:
        """Processor executing a task."""
        return self._processor_of[task_id]

    def position_of(self, task_id: TaskId) -> int:
        """Rank of a task in its processor's ordered list."""
        return self._position_of[task_id]

    def as_lists(self) -> list[list[TaskId]]:
        return [list(tasks) for tasks in self._lists]

    def processor_loads(self) -> list[float]:
        """Total weight assigned to each processor."""
        return [
            sum(self._graph.weight(t) for t in tasks) for tasks in self._lists
        ]

    def predecessor_on_processor(self, task_id: TaskId) -> TaskId | None:
        """Task executed immediately before ``task_id`` on the same processor."""
        pos = self._position_of[task_id]
        if pos == 0:
            return None
        return self._lists[self._processor_of[task_id]][pos - 1]

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def augmented_graph(self) -> TaskGraph:
        """Precedence DAG plus consecutive-on-same-processor edges.

        The makespan of a schedule with per-task durations ``d_i`` equals the
        longest path in this DAG with node weights ``d_i``; every solver in
        :mod:`repro.continuous` and :mod:`repro.discrete` works on it.
        Raises :class:`InvalidMappingError` when the processor orders create
        a cycle with the precedence constraints.
        """
        if self._augmented is None:
            extra_edges: list[tuple[TaskId, TaskId]] = []
            precedence = self._graph.edges()
            existing = set(precedence)
            for tasks in self._lists:
                for u, v in zip(tasks[:-1], tasks[1:]):
                    if (u, v) not in existing:
                        extra_edges.append((u, v))
            try:
                # Keep the precedence edges in graph order (not set order):
                # edge insertion order reaches the numerical solvers through
                # adjacency iteration, and hash-randomised order would make
                # results differ between processes.
                self._augmented = TaskGraph(
                    self._graph.weights(), precedence + extra_edges
                )
            except ValueError as exc:
                raise InvalidMappingError(
                    f"processor orderings conflict with precedence constraints: {exc}"
                ) from exc
        return self._augmented

    def compiled(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, run once per ``key`` and kept with this mapping.

        A mapping does not change after construction, so a structure other
        layers compile from it (the convex program's constraint rows, one
        per set of zero-weight tasks) is shared by every solve that reaches
        the mapping.
        """
        if key not in self._compiled:
            self._compiled[key] = build()
        return self._compiled[key]

    def is_single_processor(self) -> bool:
        return self.num_processors == 1 or all(
            len(tasks) == 0 for tasks in self._lists[1:]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._lists == other._lists and self._graph == other._graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(tasks) for tasks in self._lists]
        return f"Mapping(p={self.num_processors}, tasks_per_proc={sizes})"

"""Shared, memoized per-problem precomputation for every solver.

Each solver used to recompute the same instance facts on entry: the
structure probes (``is_chain`` / ``is_fork`` / series-parallel
decomposition) scanned the graph again in every front-end call, the
feasibility check re-walked the augmented DAG at ``fmax``, and the TRI-CRIT
subset solvers recomputed the per-task re-execution speed floor for every
one of their ``2^n`` restricted solves.  :class:`SolverContext` computes each
of those quantities lazily, exactly once per problem instance, and is shared
by the dispatcher and by every solver that accepts a ``context`` keyword.

The context is memoized on the problem object itself
(:meth:`SolverContext.for_problem`), so independent call sites -- the
dispatcher, an experiment driver, a heuristic invoked directly -- all see
the same cache for the same instance.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.problems import BiCritProblem, TriCritProblem
from ..core.reliability import equal_reexecution_floor
from ..core.speeds import (
    ContinuousSpeeds,
    DiscreteSpeeds,
    IncrementalSpeeds,
    VddHoppingSpeeds,
)
from ..dag.analysis import makespan_lower_bound
from ..dag.series_parallel import NotSeriesParallelError, decompose
from ..dag.taskgraph import TaskGraph, TaskId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..continuous.convex import ConvexProgram
    from ..core.schedule import Schedule
    from ..dag.series_parallel import SPNode
    from ..simulation.compile import CompiledSchedule

__all__ = ["SolverContext", "speed_model_kind", "problem_kind"]

#: Attribute under which the context is memoized on the (frozen) problem.
_CACHE_ATTR = "_solver_context"

#: Structure labels, from most to least specific.
STRUCTURES = ("chain", "fork", "series-parallel", "dag")


def speed_model_kind(speed_model) -> str:
    """Classify a speed model as continuous / discrete / vdd / incremental.

    Subclass order matters: VDD-HOPPING and INCREMENTAL speed sets are
    implemented as :class:`~repro.core.speeds.DiscreteSpeeds` subclasses.
    """
    if isinstance(speed_model, IncrementalSpeeds):
        return "incremental"
    if isinstance(speed_model, VddHoppingSpeeds):
        return "vdd"
    if isinstance(speed_model, DiscreteSpeeds):
        return "discrete"
    if isinstance(speed_model, ContinuousSpeeds):
        return "continuous"
    # Unknown SpeedModel subclasses fall back on their discreteness flag.
    return "discrete" if getattr(speed_model, "is_discrete", False) else "continuous"


def problem_kind(problem: BiCritProblem) -> str:
    """``"tricrit"`` for :class:`TriCritProblem`, ``"bicrit"`` otherwise."""
    return "tricrit" if isinstance(problem, TriCritProblem) else "bicrit"


class SolverContext:
    """Lazy, memoized instance analysis shared across solvers.

    Build one with :meth:`for_problem` (cached on the problem) rather than
    calling the constructor directly, so that repeated solves of the same
    instance -- the exhaustive enumerations, the ablation campaigns, the
    dispatcher's admissibility scan -- share every precomputed quantity.
    """

    def __init__(self, problem: BiCritProblem) -> None:
        self.problem = problem

    # ------------------------------------------------------------------
    # construction / memoization
    # ------------------------------------------------------------------
    @classmethod
    def for_problem(cls, problem: BiCritProblem) -> "SolverContext":
        """The problem's memoized context (created on first request)."""
        ctx = getattr(problem, _CACHE_ATTR, None)
        if ctx is None:
            ctx = cls(problem)
            # The problem dataclasses are frozen; bypass the frozen guard the
            # same way their own __post_init__ normalisation does.
            object.__setattr__(problem, _CACHE_ATTR, ctx)
        return ctx

    # ------------------------------------------------------------------
    # instance classification
    # ------------------------------------------------------------------
    @cached_property
    def kind(self) -> str:
        """Problem kind: ``"bicrit"`` or ``"tricrit"``."""
        return problem_kind(self.problem)

    @cached_property
    def speed_kind(self) -> str:
        """Speed-model kind: continuous / discrete / vdd / incremental."""
        return speed_model_kind(self.problem.platform.speed_model)

    @cached_property
    def graph(self) -> TaskGraph:
        return self.problem.graph

    @cached_property
    def augmented(self) -> TaskGraph:
        """Precedence DAG plus same-processor ordering edges (memoized)."""
        return self.problem.mapping.augmented_graph()

    @cached_property
    def topological_order(self) -> tuple[TaskId, ...]:
        return tuple(self.graph.topological_order())

    @cached_property
    def augmented_topological_order(self) -> tuple[TaskId, ...]:
        return tuple(self.augmented.topological_order())

    @cached_property
    def positive_tasks(self) -> tuple[TaskId, ...]:
        """Tasks with positive weight, in topological order."""
        return tuple(t for t in self.topological_order if self.graph.weight(t) > 0)

    @property
    def num_positive_tasks(self) -> int:
        return len(self.positive_tasks)

    @cached_property
    def is_fork(self) -> bool:
        return self.fork_source is not None

    @cached_property
    def fork_source(self) -> TaskId | None:
        ok, source = self.graph.is_fork()
        return source if ok else None

    @cached_property
    def sp_decomposition(self) -> "SPNode | None":
        """Series-parallel decomposition tree, or ``None`` when not SP."""
        try:
            return decompose(self.graph)
        except NotSeriesParallelError:
            return None

    @cached_property
    def structure(self) -> str:
        """Most specific structure label: chain, fork, series-parallel or dag.

        A single-task graph counts as a chain; every chain and fork is also
        series-parallel, so solvers declare the *set* of structures they
        support and the dispatcher matches this most-specific label against
        it.
        """
        if self.graph.is_chain():
            return "chain"
        if self.is_fork and self.graph.num_tasks > 1:
            return "fork"
        if self.sp_decomposition is not None:
            return "series-parallel"
        return "dag"

    # ------------------------------------------------------------------
    # mapping traits
    # ------------------------------------------------------------------
    @cached_property
    def is_single_processor(self) -> bool:
        return self.problem.mapping.is_single_processor()

    @cached_property
    def one_task_per_processor(self) -> bool:
        """Does every processor hold at most one task (fork closed-form setting)?"""
        return all(len(tasks) <= 1 for tasks in self.problem.mapping.as_lists())

    @cached_property
    def mapping_adds_no_edges(self) -> bool:
        """True when same-processor ordering adds no edge beyond precedence."""
        return set(self.augmented.edges()) == set(self.graph.edges())

    # ------------------------------------------------------------------
    # bounds and feasibility
    # ------------------------------------------------------------------
    @cached_property
    def critical_path_weight(self) -> float:
        return self.graph.critical_path_weight()

    @cached_property
    def min_makespan(self) -> float:
        """Makespan with every task run once at ``fmax`` under the mapping."""
        return self.problem.min_makespan()

    @cached_property
    def makespan_lower_bound(self) -> float:
        """Mapping-independent lower bound (critical path vs total area)."""
        return makespan_lower_bound(self.graph, self.problem.mapping.num_processors,
                                    self.problem.platform.fmax)

    @cached_property
    def energy_lower_bound(self) -> float:
        return self.problem.energy_lower_bound()

    @cached_property
    def energy_upper_bound(self) -> float:
        return self.problem.energy_upper_bound()

    @cached_property
    def is_feasible(self) -> bool:
        """Can the deadline be met at all (everything at ``fmax``)?"""
        return self.min_makespan <= self.problem.deadline * (1.0 + 1e-9)

    # ------------------------------------------------------------------
    # reliability precomputation (TRI-CRIT)
    # ------------------------------------------------------------------
    @cached_property
    def reliability(self):
        """The problem's reliability model (platform default for BI-CRIT)."""
        if isinstance(self.problem, TriCritProblem):
            return self.problem.reliability()
        return self.problem.platform.reliability()

    def reexecution_floor(self, task: TaskId) -> float:
        """Slowest admissible equal speed for two executions of ``task``.

        The subset-enumeration solvers query the same floors for every one
        of their ``2^n`` restricted solves, and the fork solver for every
        source finish time it tries, so a positive-weight task's floor is
        read from :attr:`reexecution_floors`.
        """
        floor = self.reexecution_floors.get(task)
        if floor is None:
            # A zero-weight task: it never runs, so no memo is kept.
            # Imported here: the continuous package imports this module.
            from ..continuous.tricrit_chain import reexecution_speed_floor

            floor = reexecution_speed_floor(self.reliability, self.graph.weight(task),
                                            self.problem.platform.fmin)
        return floor

    @cached_property
    def reexecution_floors(self) -> dict[TaskId, float]:
        """Re-execution speed floors for every positive-weight task.

        One :func:`~repro.core.reliability.equal_reexecution_floor` call
        over the task weights; every cell is computed on its own, so each
        floor is bit for bit the scalar
        :func:`~repro.continuous.tricrit_chain.reexecution_speed_floor`.
        """
        model = self.reliability
        tasks = self.positive_tasks
        weights = np.array([self.graph.weight(t) for t in tasks], dtype=float)
        floors = np.maximum(self.problem.platform.fmin, equal_reexecution_floor(
            weights, model.fmin, model.fmax, model.lambda0, model.sensitivity,
            model.frel))
        return dict(zip(tasks, floors.tolist()))

    # ------------------------------------------------------------------
    # compiled arrays
    # ------------------------------------------------------------------
    @cached_property
    def weight_array(self) -> np.ndarray:
        """Task weights in augmented topological order (shared by kernels)."""
        return self.graph.weight_array(self.augmented_topological_order)

    @cached_property
    def exposure_rate_array(self) -> np.ndarray:
        """Fault-rate-at-``frel`` exposure ``lambda(frel) * w_i / frel`` per task.

        This is each task's failure-probability budget (the paper's
        ``1 - R_i(frel)``), in augmented topological order -- the constant
        the reliability-constraint checks compare against.
        """
        model = self.reliability
        w = self.weight_array
        with np.errstate(divide="ignore", invalid="ignore"):
            budget = np.where(w > 0, model.fault_rate(model.frel) * w / model.frel, 0.0)
        return budget

    @cached_property
    def restricted_columns(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Per task of :attr:`convex_program`'s positive tasks, the weight
        and the re-execution speed floor, then the single-execution floor
        ``max(frel, fmin)``: what every restricted TRI-CRIT solve of this
        instance passes to the program, bar its subset."""
        tasks = self.convex_program.positive
        return (np.array([self.graph.weight(t) for t in tasks], dtype=float),
                np.array([self.reexecution_floor(t) for t in tasks], dtype=float),
                max(self.reliability.frel, self.problem.platform.fmin))

    @cached_property
    def convex_program(self) -> "ConvexProgram":
        """The mapping's compiled convex program over the positive-weight
        tasks: every restricted solve of this instance passes only its
        weights and speed floors to it (kept with the mapping, so
        :func:`~repro.continuous.convex.solve_bicrit_convex` finds it too)."""
        # Imported here: the continuous package imports this module.
        from ..continuous.convex import convex_program

        return convex_program(self.problem.mapping, frozenset(
            t for t in self.graph.tasks() if self.graph.weight(t) <= 0))

    def compiled(self, schedule: "Schedule") -> "CompiledSchedule":
        """Flat-array form of a schedule (per-schedule memoized exposures)."""
        from ..simulation.compile import compile_schedule

        return compile_schedule(schedule)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary dict used by dispatch metadata and reports."""
        return {
            "kind": self.kind,
            "speed_model": self.speed_kind,
            "structure": self.structure,
            "tasks": self.graph.num_tasks,
            "positive_tasks": self.num_positive_tasks,
            "processors": self.problem.mapping.num_processors,
            "single_processor": self.is_single_processor,
            "one_task_per_processor": self.one_task_per_processor,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverContext({self.kind}/{self.speed_kind}, "
            f"structure={self.structure}, n={self.graph.num_tasks})"
        )

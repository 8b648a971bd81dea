"""The :class:`Solver` descriptor: one registry entry per algorithm.

A descriptor bundles the callable entry point of a solver with the typed
capability metadata the dispatcher needs to decide admissibility without
running anything: which problem it solves (BI-CRIT / TRI-CRIT), which speed
models it understands, which graph structures it supports, whether it is
exact, an approximation or a heuristic, and how large an instance it can
afford.  The entry point is referenced as a ``"module:callable"`` string and
resolved lazily so the registry can be imported before (or without) the
algorithm modules, which keeps the package free of import cycles.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from importlib import import_module
from collections.abc import Callable, Mapping
from typing import Any

from ..core.problems import BiCritProblem, SolveResult
from .context import STRUCTURES, SolverContext

__all__ = ["Solver", "InadmissibleSolverError", "UnknownSolverOptionError",
           "EXACTNESS_ORDER"]

#: Exactness classes in preference order for exact-first dispatch.
EXACTNESS_ORDER = ("exact", "approx", "heuristic")

#: All known speed-model kinds (used to validate descriptor declarations).
_SPEED_KINDS = frozenset({"continuous", "discrete", "vdd", "incremental"})


class InadmissibleSolverError(ValueError):
    """Raised when a solver is asked to run on an instance it does not admit."""


class UnknownSolverOptionError(ValueError):
    """Raised when a caller passes an option the solver's entry point lacks."""


@dataclass(frozen=True)
class Solver:
    """Typed descriptor of one solver entry point.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"tricrit-exhaustive"``.
    impl:
        Entry point as ``"package.module:callable"``; resolved lazily by
        :meth:`resolve`.  The callable takes the problem as its only
        positional argument and returns a
        :class:`~repro.core.problems.SolveResult`.
    problem:
        ``"bicrit"`` or ``"tricrit"``.  TRI-CRIT problems are only ever
        dispatched to TRI-CRIT solvers (a BI-CRIT solver would silently drop
        the reliability constraint) and vice versa.
    speed_models:
        Subset of ``{"continuous", "discrete", "vdd", "incremental"}``.
    structures:
        Graph structures the solver supports, as a subset of
        ``{"chain", "fork", "series-parallel", "dag"}``.  ``"dag"`` marks a
        general solver; the dispatcher matches the instance's most-specific
        structure label against this set, with ``"dag"`` admitting anything.
    exactness:
        ``"exact"`` (provably optimal for its model, possibly at exponential
        cost), ``"approx"`` (guaranteed factor) or ``"heuristic"``.
    max_tasks:
        Bound on the number of positive-weight tasks (``None`` = unbounded).
        Mirrors (and centralises) the guard of the underlying function, so
        admissibility can be decided before calling it.
    requires_single_processor / requires_one_task_per_processor /
    requires_no_extra_mapping_edges:
        Mapping-shape prerequisites of the structure-specialised solvers.
    priority:
        Tie-break among solvers of the same exactness class: lower wins.
        Specialised (closed-form / polynomial) solvers get lower numbers
        than general or enumerative ones.
    default_options:
        Keyword defaults merged under any caller-supplied options -- this is
        where the central limits of :mod:`repro.solvers.limits` are wired to
        the underlying keyword arguments.
    extra_check:
        Optional predicate ``context -> (ok, reason)`` for admissibility
        conditions the declarative fields cannot express (e.g. the
        closed-form front-end admits *either* a fully serialised mapping
        *or* a fully parallel fork -- an OR over mapping shapes).
    """

    name: str
    impl: str
    summary: str
    problem: str
    speed_models: frozenset
    structures: frozenset
    exactness: str
    max_tasks: int | None = None
    requires_single_processor: bool = False
    requires_one_task_per_processor: bool = False
    requires_no_extra_mapping_edges: bool = False
    priority: int = 50
    default_options: Mapping[str, Any] = field(default_factory=dict)
    extra_check: Callable[[SolverContext], tuple[bool, str | None]] | None = None
    #: Short human-readable summary of the ``extra_check`` condition, shown
    #: in the capability table next to the declarative mapping requirements.
    constraints: str = ""

    def __post_init__(self) -> None:
        if self.problem not in ("bicrit", "tricrit"):
            raise ValueError(f"solver {self.name!r}: unknown problem kind {self.problem!r}")
        if self.exactness not in EXACTNESS_ORDER:
            raise ValueError(f"solver {self.name!r}: unknown exactness {self.exactness!r}")
        unknown = set(self.speed_models) - _SPEED_KINDS
        if unknown:
            raise ValueError(f"solver {self.name!r}: unknown speed models {sorted(unknown)}")
        unknown = set(self.structures) - set(STRUCTURES)
        if unknown:
            raise ValueError(f"solver {self.name!r}: unknown structures {sorted(unknown)}")
        if ":" not in self.impl:
            raise ValueError(f"solver {self.name!r}: impl must be 'module:callable'")

    # ------------------------------------------------------------------
    # entry-point resolution
    # ------------------------------------------------------------------
    def resolve(self) -> Callable[..., SolveResult]:
        """Import and return the underlying solver callable."""
        module_name, _, attr = self.impl.partition(":")
        func = getattr(import_module(module_name), attr)
        return func

    # ------------------------------------------------------------------
    # admissibility
    # ------------------------------------------------------------------
    def admissible(self, problem: BiCritProblem,
                   context: SolverContext | None = None) -> tuple[bool, str | None]:
        """Can this solver run on ``problem``?  Returns ``(ok, reason)``.

        ``reason`` explains the *first* failed requirement (``None`` when
        admissible); the dispatcher surfaces it in error messages and the
        ablation experiment records it for skipped solver x instance cells.
        """
        ctx = context if context is not None else SolverContext.for_problem(problem)
        if ctx.kind != self.problem:
            return False, f"solves {self.problem.upper()}, instance is {ctx.kind.upper()}"
        if ctx.speed_kind not in self.speed_models:
            return False, (f"speed model {ctx.speed_kind!r} not in "
                           f"{sorted(self.speed_models)}")
        if "dag" not in self.structures and ctx.structure not in self.structures:
            return False, (f"structure {ctx.structure!r} not in "
                           f"{sorted(self.structures)}")
        if self.requires_single_processor and not ctx.is_single_processor:
            return False, "requires a single-processor mapping"
        if self.requires_one_task_per_processor and not ctx.one_task_per_processor:
            return False, "requires at most one task per processor"
        if self.requires_no_extra_mapping_edges and not ctx.mapping_adds_no_edges:
            return False, "requires a mapping that adds no serialisation edges"
        if self.max_tasks is not None and ctx.num_positive_tasks > self.max_tasks:
            return False, (f"instance has {ctx.num_positive_tasks} positive-weight "
                           f"tasks, limit is {self.max_tasks}")
        if self.extra_check is not None:
            ok, reason = self.extra_check(ctx)
            if not ok:
                return False, reason
        return True, None

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def __call__(self, problem: BiCritProblem, *,
                 context: SolverContext | None = None,
                 validate: bool = True, **options: Any) -> SolveResult:
        """Run the solver with its descriptor defaults under ``options``.

        With ``validate`` (the default) an :class:`InadmissibleSolverError`
        is raised instead of handing the instance to a solver whose
        prerequisites it violates.  An option the entry point does not take
        raises :class:`UnknownSolverOptionError`, naming it.
        """
        func = self.resolve()
        if options:
            params = dict(inspect.signature(func).parameters)
            params.pop(next(iter(params)))  # the problem
            unknown = sorted(set(options) - set(params))
            if unknown and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                raise UnknownSolverOptionError(
                    f"solver {self.name!r} has no option "
                    f"{', '.join(map(repr, unknown))}; its options are "
                    f"{', '.join(sorted(params)) or 'none'}")
        ctx = context if context is not None else SolverContext.for_problem(problem)
        if validate:
            ok, reason = self.admissible(problem, ctx)
            if not ok:
                raise InadmissibleSolverError(
                    f"solver {self.name!r} is not admissible for this instance: {reason}")
        merged = dict(self.default_options)
        merged.update(options)
        return func(problem, **merged)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def capabilities(self) -> dict[str, Any]:
        """Flat capability row used by the CLI table and the README generator."""
        mapping_reqs = []
        if self.requires_single_processor:
            mapping_reqs.append("single processor")
        if self.requires_one_task_per_processor:
            mapping_reqs.append("<=1 task/proc")
        if self.requires_no_extra_mapping_edges:
            mapping_reqs.append("no extra mapping edges")
        if self.constraints:
            mapping_reqs.append(self.constraints)
        return {
            "solver": self.name,
            "problem": self.problem,
            "speeds": "+".join(sorted(self.speed_models)),
            "structures": ("any" if "dag" in self.structures
                           else "+".join(s for s in STRUCTURES if s in self.structures)),
            "mapping": "; ".join(mapping_reqs) or "-",
            "exactness": self.exactness,
            "max_tasks": self.max_tasks if self.max_tasks is not None else "-",
            "summary": self.summary,
        }

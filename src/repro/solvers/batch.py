"""Batched solver evaluation: whole instance lists as single NumPy programs.

The scalar front door (:func:`repro.solvers.dispatch.solve`) evaluates one
problem instance per call; campaign grids (the fork sweeps, the E13
solver-ablation cells, Pareto curves) therefore pay per-instance Python
overhead that dominates the cheap closed-form solvers of the paper's
chain/fork analysis.  :func:`solve_batch` takes a *list* of BI-CRIT /
TRI-CRIT instances, groups them by (structure, speed model, dispatched
solver), stacks their weight arrays, and evaluates every group as one array
program:

* **chain closed form** -- every single-processor CONTINUOUS instance is one
  row of a ``total_weight / deadline`` array; speeds, feasibility and
  energies for the whole batch come out of a handful of NumPy ops;
* **fork theorem** -- child weights are stacked into one padded matrix; the
  unsaturated formula, the paper's ``fmax`` saturation case and the
  per-child feasibility checks are evaluated for all forks at once (rows
  whose speeds would clamp at ``fmin`` fall back to the scalar front-end,
  exactly where the scalar route falls back to the convex program);
* **TRI-CRIT chain subset enumeration** -- instances with the same number of
  positive tasks share one ``(2^n, n)`` re-execution mask table; the
  restricted "slow everything equally" allocations of *every subset of every
  instance* are solved by a single vectorized water-filling bisection over a
  ``(batch, subsets, tasks)`` tensor, and the per-task re-execution speed
  floors are found by one vectorized reliability bisection
  (:func:`batch_reexecution_floors`) instead of ``n`` scalar ones per
  instance;
* everything else falls back to per-instance dispatch, so ``solve_batch`` is
  a drop-in replacement for a ``[solve(p) for p in problems]`` loop for
  *every* admissible solver and for ``solver="auto"``.

Results are :class:`LazyScheduleResult` objects: energies, statuses and
metadata are computed by the vectorized kernels, while the per-task
``Schedule`` object (pure Python construction cost) is only materialised
when ``result.schedule`` is first touched.  Equivalence with the scalar path
is property-tested in ``tests/test_batch_solvers.py`` and the speedup is
recorded by ``benchmarks/bench_batch_solvers.py``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Callable
from typing import Any

import numpy as np

from ..core.columnar import KIND_BICRIT, KIND_TRICRIT, ProblemBatch
from ..core.problems import BiCritProblem, SolveResult, TriCritProblem
from ..core.schedule import Execution, Schedule, TaskDecision
from ..dag.taskgraph import TaskId
from .context import SolverContext, speed_model_kind
from .descriptors import InadmissibleSolverError, Solver
from .dispatch import select_solver
from .registry import get_solver

__all__ = [
    "solve_batch",
    "plan_batch",
    "BatchPlan",
    "BatchGroup",
    "ColumnarBatchPlan",
    "LazyScheduleResult",
    "batch_reexecution_floors",
    "batch_is_feasible",
]

#: Kernel labels used by :class:`BatchGroup` (and asserted on by the tests).
KERNEL_CHAIN = "chain-closed-form"
KERNEL_FORK = "fork-closed-form"
KERNEL_TRICRIT_CHAIN = "tricrit-chain-subsets"
KERNEL_SCALAR = "scalar-fallback"

#: Positive-task cap for the vectorized subset table: ``2^n`` rows per
#: instance must stay addressable as one tensor (the scalar enumeration
#: handles larger instances, so those rows fall back per instance).
VECTOR_SUBSET_MAX_TASKS = 16

#: Soft cap on ``batch * subsets * tasks`` elements held at once by the
#: TRI-CRIT chain kernel; larger groups are processed in chunks.
_SUBSET_TENSOR_BUDGET = 4_000_000


# ----------------------------------------------------------------------
# lazy results
# ----------------------------------------------------------------------
class _LazyDispatchMetadata(dict):
    """Result metadata whose ``"dispatch"`` record is built on first access.

    The scalar front door attaches ``ctx.describe()`` to every result; the
    describe probes (structure classification, positive-task counts) cost
    more than an entire vectorized closed-form solve, so the batch kernels
    defer them until somebody actually reads the metadata.  Every read path
    materialises first, which keeps the observable content identical to the
    scalar dispatcher's.
    """

    def __init__(self, base: dict, dispatch_factory: Callable[[], dict]) -> None:
        super().__init__(base)
        self._factory: Callable[[], dict] | None = dispatch_factory

    def _materialise(self) -> None:
        if self._factory is not None:
            factory, self._factory = self._factory, None
            super().setdefault("dispatch", factory())

    def __getitem__(self, key):
        self._materialise()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._materialise()
        return super().__contains__(key)

    def __iter__(self):
        self._materialise()
        return super().__iter__()

    def __len__(self):
        self._materialise()
        return super().__len__()

    def __eq__(self, other):
        self._materialise()
        return dict(self) == other

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        self._materialise()
        return super().__repr__()

    def get(self, key, default=None):
        self._materialise()
        return super().get(key, default)

    def keys(self):
        self._materialise()
        return super().keys()

    def values(self):
        self._materialise()
        return super().values()

    def items(self):
        self._materialise()
        return super().items()

    def copy(self):
        self._materialise()
        return dict(self)

    def setdefault(self, key, default=None):
        self._materialise()
        return super().setdefault(key, default)

    def pop(self, key, *args):
        self._materialise()
        return super().pop(key, *args)

    def update(self, *args, **kwargs):
        self._materialise()
        return super().update(*args, **kwargs)

    def __reduce__(self):
        # Preserve laziness across pickling: the base entries are read with
        # C-level dict access (bypassing the materialising overrides) and the
        # factory -- a picklable dataclass, not a closure -- rides along, so
        # shipping results through the campaign process pool does not force
        # the dispatch probes.
        base = {k: dict.__getitem__(self, k) for k in dict.keys(self)}
        if self._factory is None:
            return (dict, (base,))
        return (_rebuild_lazy_metadata, (base, self._factory))


def _rebuild_lazy_metadata(base: dict, factory: Callable[[], dict]
                           ) -> _LazyDispatchMetadata:
    """Unpickling hook of :class:`_LazyDispatchMetadata` (kept lazy)."""
    return _LazyDispatchMetadata(base, factory)


class LazyScheduleResult(SolveResult):
    """A :class:`SolveResult` whose ``Schedule`` is built on first access.

    The vectorized kernels compute energies and feasibility for a whole
    batch without touching Python-level schedule objects; constructing the
    per-task :class:`~repro.core.schedule.TaskDecision` dictionaries is
    deferred until a caller actually reads ``result.schedule`` (experiment
    drivers that only consume ``result.energy`` never pay for it).
    """

    def __init__(self, *, builder: Callable[[], Schedule], energy: float,
                 status: str, solver: str,
                 metadata: dict[str, Any] | None = None) -> None:
        self._schedule_builder: Callable[[], Schedule] | None = builder
        super().__init__(schedule=None, energy=energy, status=status,
                         solver=solver,
                         metadata=metadata if metadata is not None else {})

    @property
    def schedule(self) -> Schedule | None:
        if self._schedule is None and self._schedule_builder is not None:
            self._schedule = self._schedule_builder()
            self._schedule_builder = None
        return self._schedule

    @schedule.setter
    def schedule(self, value: Schedule | None) -> None:
        self._schedule = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self._schedule is not None else "lazy"
        return (f"LazyScheduleResult(solver={self.solver!r}, "
                f"energy={self.energy:.6g}, status={self.status!r}, "
                f"schedule={built})")


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchGroup:
    """One homogeneous slice of a batch: a kernel plus the instance indices."""

    kernel: str
    solver: str
    indices: tuple[int, ...]


@dataclass
class BatchPlan:
    """How :func:`solve_batch` will evaluate one instance list."""

    solver: str                  # the requested solver argument
    auto: bool
    descriptors: list[Solver]    # dispatched descriptor per instance
    groups: list[BatchGroup]

    def kernel_counts(self) -> dict[str, int]:
        """Instance count per kernel (the tests assert vectorized coverage)."""
        counts: dict[str, int] = {}
        for group in self.groups:
            counts[group.kernel] = counts.get(group.kernel, 0) + len(group.indices)
        return counts


#: Route codes of :class:`ColumnarBatchPlan` -- one small int per row, so
#: grouping a columnar batch is a masked scatter over the route column
#: instead of per-instance Python probes.
ROUTE_LEGACY = 0
ROUTE_CHAIN = 1
ROUTE_FORK = 2
ROUTE_TRICRIT = 3

_ROUTE_KERNELS = {
    ROUTE_CHAIN: KERNEL_CHAIN,
    ROUTE_FORK: KERNEL_FORK,
    ROUTE_TRICRIT: KERNEL_TRICRIT_CHAIN,
}

#: Solvers with a fully columnar route; any other name sends every row
#: through the legacy object path (which produces the exact scalar errors
#: and results for solvers the array kernels do not implement).
_COLUMNAR_SOLVERS = frozenset({"auto", "bicrit-closed-form",
                               "tricrit-chain-exact", "tricrit-pruned"})


@dataclass
class ColumnarBatchPlan:
    """How :func:`solve_batch` will evaluate one :class:`ProblemBatch`.

    Fast rows (``routes != ROUTE_LEGACY``) are solved straight off the
    columns without materialising ``Problem`` objects; legacy rows are
    materialised and planned through the object-path :func:`plan_batch`,
    preserving its validation errors and scalar fallbacks byte for byte.
    """

    solver: str
    auto: bool
    batch: ProblemBatch
    routes: np.ndarray                       # int8 route code per row
    legacy_indices: list[int]
    legacy_problems: list[BiCritProblem]
    legacy_contexts: list[SolverContext]
    legacy_plan: BatchPlan | None

    def kernel_counts(self) -> dict[str, int]:
        """Instance count per kernel, columnar and legacy rows combined."""
        counts: dict[str, int] = {}
        for route, kernel in _ROUTE_KERNELS.items():
            hits = int(np.count_nonzero(self.routes == route))
            if hits:
                counts[kernel] = hits
        if self.legacy_plan is not None:
            for kernel, n in self.legacy_plan.kernel_counts().items():
                counts[kernel] = counts.get(kernel, 0) + n
        return counts


def _fast_closed_form_kernel(problem: BiCritProblem,
                             ctx: SolverContext) -> str | None:
    """Kernel label when ``bicrit-closed-form`` *definitely* admits ``problem``.

    A fused version of the descriptor's admissibility check plus
    :func:`_kernel_for` for the two vectorized routes, probing every
    instance fact exactly once and seeding the context's caches with the
    answers.  Returns ``None`` whenever the instance is not certainly on a
    vectorized route -- the caller then falls back to the full
    (reason-producing) admissibility machinery, so this fast path can never
    admit something the scalar dispatcher would reject.

    Soundness for ``solver="auto"``: ``bicrit-closed-form`` sorts first in
    dispatch-preference order (exact, priority 10, alphabetically first), so
    whenever it admits an instance it *is* the auto-dispatch choice.
    """
    if isinstance(problem, TriCritProblem):
        return None
    cache = ctx.__dict__
    if "kind" not in cache:
        cache["kind"] = "bicrit"
    if "speed_kind" not in cache:
        cache["speed_kind"] = speed_model_kind(problem.platform.speed_model)
    if cache["speed_kind"] != "continuous":
        return None
    if "is_single_processor" not in cache:
        cache["is_single_processor"] = problem.mapping.is_single_processor()
    if cache["is_single_processor"]:
        return KERNEL_CHAIN
    if "fork_source" not in cache:
        ok, source = ctx.graph.is_fork()
        cache["fork_source"] = source if ok else None
        cache["is_fork"] = cache["fork_source"] is not None
    if cache["fork_source"] is None or ctx.graph.num_tasks <= 1:
        return None
    if "one_task_per_processor" not in cache:
        cache["one_task_per_processor"] = all(
            len(tasks) <= 1 for tasks in problem.mapping.as_lists())
    if cache["one_task_per_processor"]:
        return KERNEL_FORK
    return None


def _kernel_for(descriptor: Solver, ctx: SolverContext) -> str:
    """Which vectorized kernel (if any) evaluates this dispatched instance."""
    if descriptor.name == "bicrit-closed-form":
        if ctx.is_single_processor:
            return KERNEL_CHAIN
        if ctx.is_fork and ctx.graph.num_tasks > 1 and ctx.one_task_per_processor:
            return KERNEL_FORK
        return KERNEL_SCALAR    # series-parallel recursion stays per instance
    if descriptor.name in ("tricrit-chain-exact", "tricrit-pruned"):
        # Positive-weight tasks only, matching the scalar guards and the
        # descriptor admissibility check; beyond the vector-subset cap the
        # instance runs the scalar solver (enumeration or pruned search).
        if (ctx.is_single_processor
                and 1 <= ctx.num_positive_tasks <= VECTOR_SUBSET_MAX_TASKS):
            return KERNEL_TRICRIT_CHAIN
        return KERNEL_SCALAR
    return KERNEL_SCALAR


def plan_batch(problems: Sequence[BiCritProblem], solver: str = "auto", *,
               contexts: Sequence[SolverContext] | None = None,
               validate: bool = True, vectorize: bool = True) -> BatchPlan:
    """Group ``problems`` by dispatched solver and vectorized kernel.

    Mirrors the scalar dispatch semantics exactly: ``solver="auto"`` selects
    per instance through :func:`repro.solvers.dispatch.select_solver` (and
    raises :class:`~repro.solvers.dispatch.NoAdmissibleSolverError` for an
    instance nothing admits), a named solver is validated per instance when
    ``validate`` is set (raising
    :class:`~repro.solvers.descriptors.InadmissibleSolverError` like the
    descriptor itself would).  ``vectorize=False`` forces every instance
    onto the scalar fallback (used when solver-specific options are passed,
    which the array kernels do not understand).

    A :class:`~repro.core.columnar.ProblemBatch` may be passed instead of an
    instance list; planning then happens directly on the columns (returning
    a :class:`ColumnarBatchPlan`) and only fallback rows are materialised.
    """
    if isinstance(problems, ProblemBatch):
        if contexts is not None:
            raise ValueError("contexts cannot be combined with a ProblemBatch")
        return _plan_batch_columnar(problems, solver, validate=validate,
                                    vectorize=vectorize)
    ctxs = list(contexts) if contexts is not None else \
        [SolverContext.for_problem(p) for p in problems]
    if len(ctxs) != len(problems):
        raise ValueError("contexts must match problems one-to-one")
    auto = solver == "auto"
    descriptors: list[Solver] = []
    kernels: list[str | None] = []
    if auto:
        closed_form = get_solver("bicrit-closed-form")
        for problem, ctx in zip(problems, ctxs):
            kernel = _fast_closed_form_kernel(problem, ctx) if vectorize else None
            if kernel is not None:
                descriptors.append(closed_form)
                kernels.append(kernel)
            else:
                descriptors.append(select_solver(problem, context=ctx))
                kernels.append(None)
    else:
        descriptor = get_solver(solver)
        fast = vectorize and descriptor.name == "bicrit-closed-form"
        for problem, ctx in zip(problems, ctxs):
            kernel = _fast_closed_form_kernel(problem, ctx) if fast else None
            if kernel is None and validate:
                ok, reason = descriptor.admissible(problem, ctx)
                if not ok:
                    raise InadmissibleSolverError(
                        f"solver {descriptor.name!r} is not admissible for "
                        f"this instance: {reason}")
            descriptors.append(descriptor)
            kernels.append(kernel)

    grouped: dict[tuple[str, str], list[int]] = {}
    for index, (descriptor, ctx) in enumerate(zip(descriptors, ctxs)):
        kernel = kernels[index]
        if kernel is None:
            kernel = _kernel_for(descriptor, ctx) if vectorize else KERNEL_SCALAR
        grouped.setdefault((kernel, descriptor.name), []).append(index)
    groups = [BatchGroup(kernel=kernel, solver=name, indices=tuple(indices))
              for (kernel, name), indices in grouped.items()]
    return BatchPlan(solver=solver, auto=auto, descriptors=descriptors,
                     groups=groups)


def _plan_batch_columnar(batch: ProblemBatch, solver: str, *,
                         validate: bool = True,
                         vectorize: bool = True) -> ColumnarBatchPlan:
    """Route every batch row by masked column predicates, no object probes.

    A fast route is only assigned when the columnar parser *verified* the
    facts the scalar admissibility checks would probe (structure, mapping
    shape, speed-model kind, size caps), so a fast row is admissible for its
    kernel solver by construction; everything else -- unknown solvers,
    non-canonical payloads, oversized instances, pre-built problems -- is
    materialised and re-planned through the object path, inheriting its
    exact errors and fallbacks.
    """
    cols = batch.columns
    size = len(batch)
    routes = np.full(size, ROUTE_LEGACY, dtype=np.int8)
    auto = solver == "auto"
    if vectorize and size and solver in _COLUMNAR_SOLVERS:
        fast = ~cols["fallback"]
        bicrit = fast & (cols["kind"] == KIND_BICRIT)
        tricrit = fast & (cols["kind"] == KIND_TRICRIT)
        if solver in ("auto", "bicrit-closed-form"):
            # Serialized mappings take the chain closed form whatever the
            # structure; the mapping-order guard keeps the makespan fold of
            # the wire view identical to the scalar schedule walk.
            chain = (bicrit & cols["single_processor"]
                     & cols["mapping_in_order"])
            fork = (bicrit & ~cols["single_processor"] & cols["is_fork"]
                    & (cols["num_tasks"] > 1)
                    & cols["one_task_per_processor"])
            routes[chain] = ROUTE_CHAIN
            routes[fork] = ROUTE_FORK
        if solver in ("auto", "tricrit-chain-exact", "tricrit-pruned"):
            # Positive-weight tasks only (the scalar guards and the
            # descriptor admissibility agree on that count); the vectorized
            # subset kernel computes the same optimum whichever of the two
            # exact chain solvers was named.
            tri = (tricrit & cols["single_processor"]
                   & cols["mapping_in_order"]
                   & (cols["num_positive"] >= 1)
                   & (cols["num_positive"] <= VECTOR_SUBSET_MAX_TASKS))
            routes[tri] = ROUTE_TRICRIT
    legacy_indices = [int(i) for i in np.flatnonzero(routes == ROUTE_LEGACY)]
    legacy_problems = [batch.problem(i) for i in legacy_indices]
    legacy_contexts = [SolverContext.for_problem(p) for p in legacy_problems]
    legacy_plan = None
    if legacy_indices:
        legacy_plan = plan_batch(legacy_problems, solver,
                                 contexts=legacy_contexts, validate=validate,
                                 vectorize=vectorize)
    return ColumnarBatchPlan(solver=solver, auto=auto, batch=batch,
                             routes=routes, legacy_indices=legacy_indices,
                             legacy_problems=legacy_problems,
                             legacy_contexts=legacy_contexts,
                             legacy_plan=legacy_plan)


# ----------------------------------------------------------------------
# the batch front door
# ----------------------------------------------------------------------
def solve_batch(problems: Sequence[BiCritProblem], solver: str = "auto", *,
                contexts: Sequence[SolverContext] | None = None,
                validate: bool = True,
                plan: BatchPlan | None = None,
                **options: Any) -> list[SolveResult]:
    """Solve many instances at once; a drop-in batched ``solve()`` loop.

    Parameters mirror :func:`repro.solvers.dispatch.solve`; the return value
    is one :class:`~repro.core.problems.SolveResult` per input problem, in
    input order, agreeing with the per-instance scalar path within floating
    point tolerance (and bit-for-bit on statuses, routes and re-execution
    subsets, modulo degenerate energy ties).

    Instances the vectorized kernels understand -- single-processor
    CONTINUOUS chains, fully parallel CONTINUOUS forks, and TRI-CRIT chain
    subset enumerations -- are evaluated as grouped array programs; every
    other instance runs through the scalar dispatcher.  Solver-specific
    ``options`` force the scalar path for the whole batch (the kernels only
    implement the descriptor-default configurations).

    A :class:`~repro.core.columnar.ProblemBatch` may be passed instead of an
    instance list: fast rows are then solved straight off the ragged weight
    arrays (zero per-instance ``Problem`` construction) and carry an eager
    ``wire_view`` for the API layer, while fallback rows run through the
    object path above.
    """
    if isinstance(problems, ProblemBatch):
        if contexts is not None:
            raise ValueError("contexts cannot be combined with a ProblemBatch")
        return _solve_batch_columnar(problems, solver, validate=validate,
                                     plan=plan, **options)
    problems = list(problems)
    ctxs = list(contexts) if contexts is not None else \
        [SolverContext.for_problem(p) for p in problems]
    if plan is None:
        plan = plan_batch(problems, solver, contexts=ctxs, validate=validate,
                          vectorize=not options)
    results: list[SolveResult | None] = [None] * len(problems)
    for group in plan.groups:
        indices = list(group.indices)
        if group.kernel == KERNEL_CHAIN:
            _solve_chain_group(problems, ctxs, indices, plan, results)
        elif group.kernel == KERNEL_FORK:
            _solve_fork_group(problems, ctxs, indices, plan, results)
        elif group.kernel == KERNEL_TRICRIT_CHAIN:
            _solve_tricrit_chain_group(problems, ctxs, indices, plan, results)
        else:
            for i in indices:
                results[i] = _scalar_solve(problems[i], plan.descriptors[i],
                                           ctxs[i], auto=plan.auto,
                                           validate=validate, **options)
    return results  # type: ignore[return-value]


def _dispatch_record(descriptor: Solver, ctx: SolverContext, auto: bool) -> dict:
    """The ``metadata["dispatch"]`` record the scalar front door attaches."""
    return {
        "solver": descriptor.name,
        "auto": auto,
        "exactness": descriptor.exactness,
        **ctx.describe(),
    }


@dataclass
class _DispatchRecordFactory:
    """Picklable deferred ``metadata["dispatch"]`` record.

    Captures the descriptor *name* and the problem instead of the live
    descriptor/context pair, so lazy metadata survives pickling through the
    campaign process pool; the context is re-memoized on the problem on
    first access (in-process that returns the already-seeded context).
    """

    solver_name: str
    auto: bool
    problem: BiCritProblem

    def __call__(self) -> dict:
        ctx = SolverContext.for_problem(self.problem)
        return _dispatch_record(get_solver(self.solver_name), ctx, self.auto)


def _lazy_metadata(base: dict, descriptor: Solver, ctx: SolverContext,
                   auto: bool) -> _LazyDispatchMetadata:
    """Metadata carrying ``base`` plus a deferred scalar dispatch record."""
    return _LazyDispatchMetadata(
        base, _DispatchRecordFactory(descriptor.name, auto, ctx.problem))


def _scalar_solve(problem: BiCritProblem, descriptor: Solver,
                  ctx: SolverContext, *, auto: bool, validate: bool,
                  **options: Any) -> SolveResult:
    """Per-instance fallback, byte-compatible with ``dispatch.solve``."""
    result = descriptor(problem, context=ctx, validate=validate and not auto,
                        **options)
    result.metadata.setdefault("dispatch", _dispatch_record(descriptor, ctx, auto))
    return result


# ----------------------------------------------------------------------
# batched feasibility / speed-floor primitives
# ----------------------------------------------------------------------
def batch_is_feasible(problems: Sequence[BiCritProblem], *,
                      contexts: Sequence[SolverContext] | None = None) -> np.ndarray:
    """Vectorized ``ctx.is_feasible`` over a batch of instances.

    Single-processor instances reduce to one ``total_weight / fmax <= D``
    array comparison (their fmax makespan is the serialised sum); other
    mappings fall back to the context's memoized makespan walk.  The
    computed verdicts are seeded into each context so later scalar accesses
    of ``ctx.is_feasible`` are free.
    """
    ctxs = list(contexts) if contexts is not None else \
        [SolverContext.for_problem(p) for p in problems]
    out = np.empty(len(ctxs), dtype=bool)
    serial_rows = [i for i, ctx in enumerate(ctxs)
                   if ctx.is_single_processor and "is_feasible" not in ctx.__dict__]
    if serial_rows:
        totals = np.array([ctxs[i].graph.total_weight() for i in serial_rows])
        fmax = np.array([ctxs[i].problem.platform.fmax for i in serial_rows])
        deadlines = np.array([ctxs[i].problem.deadline for i in serial_rows])
        feasible = totals / fmax <= deadlines * (1.0 + 1e-9)
        for row, i in enumerate(serial_rows):
            ctxs[i].__dict__["is_feasible"] = bool(feasible[row])
            ctxs[i].__dict__["min_makespan"] = float(totals[row] / fmax[row])
    for i, ctx in enumerate(ctxs):
        out[i] = ctx.is_feasible
    return out


def _floor_array(w: np.ndarray, model_fmin: np.ndarray, model_fmax: np.ndarray,
                 lambda0: np.ndarray, sensitivity: np.ndarray,
                 frel: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    """Vectorized ``ReliabilityModel.min_equal_reexecution_speed``.

    All arguments are broadcast-compatible arrays with one entry per
    (instance, task) pair; the return value is the model floor *before* the
    platform ``fmin`` clamp of ``reexecution_speed_floor``.
    """
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(w.shape, model_fmin.shape, model_fmax.shape,
                                lambda0.shape, sensitivity.shape, frel.shape)
    w, model_fmin, model_fmax, lambda0, sensitivity, frel = (
        np.broadcast_to(a, shape).astype(float)
        for a in (w, model_fmin, model_fmax, lambda0, sensitivity, frel))

    span = model_fmax - model_fmin
    safe_span = np.where(span > 0, span, 1.0)

    def failure(f: np.ndarray) -> np.ndarray:
        scale = np.where(span > 0, (model_fmax - f) / safe_span, 0.0)
        rate = lambda0 * np.exp(sensitivity * scale)
        return np.clip(rate * w / f, 0.0, 1.0)

    budget = failure(frel)
    out = np.empty(shape, dtype=float)

    # budget <= 0: perfect-reliability threshold -- fmin when lambda0 == 0
    # (failure identically zero), frel otherwise (matches the scalar model).
    degenerate = budget <= 0.0
    # repro: allow[REP006] -- lambda0 is an assigned model parameter,
    # never computed; exact zero is the perfect-reliability sentinel
    out[degenerate] = np.where(lambda0[degenerate] == 0.0,
                               model_fmin[degenerate], frel[degenerate])

    active = ~degenerate
    lo = model_fmin.copy()
    hi = frel.copy()
    excess_lo = failure(model_fmin) ** 2 - budget
    excess_hi = failure(frel) ** 2 - budget
    at_lo = active & (excess_lo <= tol)
    out[at_lo] = lo[at_lo]
    at_hi = active & (excess_hi > tol)        # degenerate guard of the scalar
    out[at_hi] = hi[at_hi]

    bisect = active & ~at_lo & ~at_hi
    if np.any(bisect):
        lo_b = lo.copy()
        hi_b = hi.copy()
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            shrink = failure(mid) ** 2 - budget <= 0.0
            hi_b = np.where(bisect & shrink, mid, hi_b)
            lo_b = np.where(bisect & ~shrink, mid, lo_b)
            if np.all(~bisect | (hi_b - lo_b <= 1e-14 * np.maximum(1.0, hi_b))):
                break
        out[bisect] = hi_b[bisect]
    return out


def batch_reexecution_floors(problems: Sequence[BiCritProblem], *,
                             contexts: Sequence[SolverContext] | None = None
                             ) -> list[dict[TaskId, float]]:
    """Per-task re-execution speed floors for many instances at once.

    One vectorized reliability bisection replaces the per-task scalar
    bisections of ``ctx.reexecution_floor``; results are written back into
    every context's floor cache, so the subset enumerations and greedy
    heuristics that follow pay nothing.
    """
    ctxs = list(contexts) if contexts is not None else \
        [SolverContext.for_problem(p) for p in problems]
    flat_w: list[float] = []
    flat_params: list[tuple[float, float, float, float, float, float]] = []
    spans: list[tuple[SolverContext, list[TaskId]]] = []
    for ctx in ctxs:
        tasks = [t for t in ctx.positive_tasks
                 if t not in ctx._reexec_floor_cache]
        spans.append((ctx, tasks))
        model = ctx.reliability
        pfmin = ctx.problem.platform.fmin
        for t in tasks:
            flat_w.append(ctx.graph.weight(t))
            flat_params.append((model.fmin, model.fmax, model.lambda0,
                                model.sensitivity, model.frel, pfmin))
    if flat_w:
        params = np.array(flat_params, dtype=float)
        floors = _floor_array(np.array(flat_w), params[:, 0], params[:, 1],
                              params[:, 2], params[:, 3], params[:, 4])
        floors = np.maximum(params[:, 5], floors)
        cursor = 0
        for ctx, tasks in spans:
            for t in tasks:
                ctx._reexec_floor_cache[t] = float(floors[cursor])
                cursor += 1
    return [{t: ctx.reexecution_floor(t) for t in ctx.positive_tasks}
            for ctx in ctxs]


# ----------------------------------------------------------------------
# kernel: single-processor CONTINUOUS chains (BI-CRIT closed form)
# ----------------------------------------------------------------------
@dataclass
class _ChainScheduleBuilder:
    """Picklable deferred schedule for a chain closed-form row."""

    problem: BiCritProblem
    speed: float

    def __call__(self) -> Schedule:
        graph = self.problem.graph
        fmax = self.problem.platform.fmax
        decisions = {
            t: TaskDecision.single(t, graph.weight(t),
                                   self.speed if graph.weight(t) > 0 else fmax)
            for t in graph.tasks()
        }
        return Schedule(self.problem.mapping, self.problem.platform, decisions)


def _chain_core(totals: np.ndarray, deadlines: np.ndarray, fmin: np.ndarray,
                fmax: np.ndarray, alpha: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chain closed form as one array program over per-row columns.

    Shared between the object-path group solver and the columnar kernel so
    both produce bit-identical speeds/energies for the same rows.
    """
    raw_speed = totals / deadlines
    infeasible = (totals > 0) & (raw_speed > fmax * (1.0 + 1e-12))
    speed = np.maximum(raw_speed, fmin)
    energy = totals * speed ** (alpha - 1.0)
    return raw_speed, infeasible, speed, energy


def _solve_chain_group(problems: list[BiCritProblem],
                       ctxs: list[SolverContext], indices: list[int],
                       plan: BatchPlan, results: list[SolveResult | None]) -> None:
    """All single-processor chain closed forms of the batch in one program."""
    totals = np.array([ctxs[i].graph.total_weight() for i in indices])
    deadlines = np.array([problems[i].deadline for i in indices])
    fmin = np.array([problems[i].platform.fmin for i in indices])
    fmax = np.array([problems[i].platform.fmax for i in indices])
    alpha = np.array([problems[i].platform.energy_model.exponent
                      for i in indices])

    raw_speed, infeasible, speed, energy = _chain_core(totals, deadlines,
                                                       fmin, fmax, alpha)

    for row, i in enumerate(indices):
        if infeasible[row]:
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[chain]",
                metadata=_lazy_metadata(
                    {"message": (f"chain needs speed {raw_speed[row]:.6g} > "
                                 f"fmax={fmax[row]:.6g} to meet the deadline")},
                    plan.descriptors[i], ctxs[i], plan.auto))
            continue
        if totals[row] == 0:
            row_energy, row_speed = 0.0, 0.0
        else:
            row_energy, row_speed = float(energy[row]), float(speed[row])
        results[i] = LazyScheduleResult(
            builder=_ChainScheduleBuilder(problems[i], row_speed),
            energy=row_energy, status="optimal",
            solver="continuous-closed-form[chain]",
            metadata=_lazy_metadata(
                {"route": "chain", "closed_form_energy": row_energy},
                plan.descriptors[i], ctxs[i], plan.auto))


# ----------------------------------------------------------------------
# kernel: fully parallel CONTINUOUS forks (the paper's fork theorem)
# ----------------------------------------------------------------------
@dataclass
class _ForkScheduleBuilder:
    """Picklable deferred schedule for a fork closed-form row."""

    problem: BiCritProblem
    source: TaskId
    children: tuple[TaskId, ...]
    source_speed: float
    child_speeds: tuple[float, ...]

    def __call__(self) -> Schedule:
        graph = self.problem.graph
        fmax = self.problem.platform.fmax
        speeds = {self.source: self.source_speed}
        speeds.update(zip(self.children, self.child_speeds))
        decisions = {}
        for t in graph.tasks():
            w = graph.weight(t)
            f = speeds[t] if w > 0 else fmax
            decisions[t] = TaskDecision.single(t, w, f if f > 0 else fmax)
        return Schedule(self.problem.mapping, self.problem.platform, decisions)


def _fork_core(w0: np.ndarray, W: np.ndarray, deadlines: np.ndarray,
               fmin: np.ndarray, fmax: np.ndarray, alpha: np.ndarray) -> tuple:
    """The fork theorem (saturation cases included) over per-row columns.

    ``W`` is the zero-padded ``(rows, max_children)`` child-weight matrix.
    Shared between the object-path group solver and the columnar kernel so
    both produce bit-identical speeds/energies for the same rows.
    """
    norm = np.sum(W ** alpha[:, None], axis=1) ** (1.0 / alpha)
    f0 = (norm + w0) / deadlines
    saturated = f0 > fmax * (1.0 + 1e-12)

    source_blocks = saturated & (w0 / fmax >= deadlines)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_prime = deadlines - w0 / fmax
        sat_child = np.where(d_prime[:, None] > 0, W / d_prime[:, None], np.inf)
        unsat_child = np.where(norm[:, None] > 0, f0[:, None] * W / norm[:, None], 0.0)
    child_speed = np.where(saturated[:, None], sat_child, unsat_child)
    child_speed[W == 0] = 0.0
    source_speed = np.where(saturated, fmax, f0)

    child_violation = saturated[:, None] & (child_speed > fmax[:, None] * (1.0 + 1e-12))
    child_blocks = ~source_blocks & np.any(child_violation, axis=1)

    # fmin clamping invalidates the algebraic formula; the scalar front-end
    # falls through to the SP recursion / convex program there, so those
    # rows take the per-instance path.
    speeds_all = np.concatenate([source_speed[:, None], child_speed], axis=1)
    clamped = np.any((speeds_all > 0) & (speeds_all < fmin[:, None] * (1.0 - 1e-12)),
                     axis=1)

    energy = (w0 * source_speed ** (alpha - 1.0)
              + np.sum(W * child_speed ** (alpha[:, None] - 1.0), axis=1))
    return (source_blocks, child_blocks, child_violation, clamped,
            source_speed, child_speed, energy)


def _solve_fork_group(problems: list[BiCritProblem],
                      ctxs: list[SolverContext], indices: list[int],
                      plan: BatchPlan, results: list[SolveResult | None]) -> None:
    """The fork theorem (including the fmax saturation case) for a batch."""
    B = len(indices)
    sources: list[TaskId] = []
    children: list[list[TaskId]] = []
    child_weights: list[list[float]] = []
    w0 = np.empty(B)
    for row, i in enumerate(indices):
        source = ctxs[i].fork_source
        weights = ctxs[i].graph.weights()
        sources.append(source)
        children.append([t for t in weights if t != source])
        child_weights.append([weights[t] for t in children[row]])
        w0[row] = weights[source]
    width = max(len(c) for c in children)

    W = np.zeros((B, width))
    for row in range(B):
        W[row, :len(child_weights[row])] = child_weights[row]
    deadlines = np.array([problems[i].deadline for i in indices])
    fmin = np.array([problems[i].platform.fmin for i in indices])
    fmax = np.array([problems[i].platform.fmax for i in indices])
    alpha = np.array([problems[i].platform.energy_model.exponent
                      for i in indices])

    (source_blocks, child_blocks, child_violation, clamped,
     source_speed, child_speed, energy) = _fork_core(w0, W, deadlines,
                                                     fmin, fmax, alpha)

    for row, i in enumerate(indices):
        if source_blocks[row]:
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[fork]",
                metadata=_lazy_metadata(
                    {"message": ("the source alone exceeds the deadline "
                                 "at fmax; no solution")},
                    plan.descriptors[i], ctxs[i], plan.auto))
            continue
        if child_blocks[row]:
            col = int(np.argmax(child_violation[row]))
            child = children[row][col]
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[fork]",
                metadata=_lazy_metadata(
                    {"message": (
                        f"child {child!r} needs speed "
                        f"{child_speed[row, col]:.6g} "
                        f"> fmax={fmax[row]:.6g}; no solution")},
                    plan.descriptors[i], ctxs[i], plan.auto))
            continue
        if clamped[row]:
            results[i] = _scalar_solve(problems[i], plan.descriptors[i],
                                       ctxs[i], auto=plan.auto, validate=True)
            continue
        row_energy = float(energy[row])
        results[i] = LazyScheduleResult(
            builder=_ForkScheduleBuilder(
                problems[i], sources[row], tuple(children[row]),
                float(source_speed[row]),
                tuple(float(f) for f in
                      child_speed[row, :len(children[row])])),
            energy=row_energy, status="optimal",
            solver="continuous-closed-form[fork]",
            metadata=_lazy_metadata(
                {"route": "fork", "closed_form_energy": row_energy},
                plan.descriptors[i], ctxs[i], plan.auto))


# ----------------------------------------------------------------------
# kernel: TRI-CRIT chains -- one masked subset table for the whole batch
# ----------------------------------------------------------------------
@lru_cache(maxsize=32)
def _subset_masks(n: int) -> np.ndarray:
    """The ``(2^n, n)`` re-execution mask table in enumeration order.

    Row order matches ``itertools.combinations`` by subset size then
    position, which is the order of the scalar enumeration -- ``argmin``
    therefore picks the same optimal subset as the scalar first-strict-min
    scan.
    """
    rows = np.zeros((2 ** n, n), dtype=bool)
    for row, subset in enumerate(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1))):
        rows[row, list(subset)] = True
    return rows


@dataclass
class _TricritChainScheduleBuilder:
    """Picklable deferred schedule for a TRI-CRIT chain subset row."""

    problem: BiCritProblem
    speeds: dict[TaskId, float]
    reexecuted: frozenset[TaskId]

    def __call__(self) -> Schedule:
        graph = self.problem.graph
        fmax = self.problem.platform.fmax
        decisions = {}
        for t in graph.tasks():
            w = graph.weight(t)
            if w <= 0:
                decisions[t] = TaskDecision.single(t, w, fmax)
            elif t in self.reexecuted:
                f = self.speeds[t]
                decisions[t] = TaskDecision.reexecuted(t, w, f, f)
            else:
                decisions[t] = TaskDecision.single(t, w, self.speeds[t])
        return Schedule(self.problem.mapping, self.problem.platform, decisions)


def _tricrit_chain_core(W: np.ndarray, deadlines: np.ndarray,
                        pfmin: np.ndarray, pfmax: np.ndarray,
                        alpha: np.ndarray, reexec_floor: np.ndarray,
                        frel: np.ndarray, masks: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masked subset water-filling over a ``(B, S, n)`` tensor.

    Shared between the object-path chunk solver and the columnar kernel so
    both produce bit-identical durations/energies for the same rows.
    Returns ``(eff, durations, energy)`` with ``energy`` already ``inf`` on
    infeasible (instance, subset) rows.
    """
    B = W.shape[0]
    S = masks.shape[0]
    single_floor = np.maximum(frel, pfmin)

    eff = W[:, None, :] * (1.0 + masks[None, :, :])              # (B, S, n)
    floor = np.where(masks[None, :, :], reexec_floor[:, None, :],
                     single_floor[:, None, None])
    bad_floor = np.any(floor > pfmax[:, None, None] * (1.0 + 1e-12), axis=2)

    lower = eff / pfmax[:, None, None]
    upper = eff / floor
    min_time = lower.sum(axis=2)
    infeasible = bad_floor | (min_time > deadlines[:, None] * (1.0 + 1e-12))

    # Vectorized water-filling: find t with sum(clip(t*eff, lower, upper))
    # equal to the deadline (or saturate at the loose end), for every
    # (instance, subset) row at once.
    max_time = upper.sum(axis=2)
    t_hi = (1.0 / floor).max(axis=2) + 1.0
    t = np.where(max_time <= deadlines[:, None], t_hi, 0.0)
    active = (~infeasible & (min_time < deadlines[:, None])
              & (deadlines[:, None] < max_time))
    if np.any(active):
        lo_b = np.zeros((B, S))
        hi_b = t_hi.copy()
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            total = np.clip(mid[:, :, None] * eff, lower, upper).sum(axis=2)
            shrink = total >= deadlines[:, None]
            hi_b = np.where(active & shrink, mid, hi_b)
            lo_b = np.where(active & ~shrink, mid, lo_b)
            if np.all(~active | (hi_b - lo_b
                                 <= 1e-12 * np.maximum(1.0, np.abs(hi_b)))):
                break
        t = np.where(active, 0.5 * (lo_b + hi_b), t)

    durations = np.clip(t[:, :, None] * eff, lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        energy = np.sum(eff ** alpha[:, None, None]
                        / durations ** (alpha[:, None, None] - 1.0), axis=2)
    energy[infeasible] = np.inf
    return eff, durations, energy


def _solve_tricrit_chain_group(problems: list[BiCritProblem],
                               ctxs: list[SolverContext], indices: list[int],
                               plan: BatchPlan,
                               results: list[SolveResult | None]) -> None:
    """Vectorized subset enumeration for TRI-CRIT chains, grouped by size."""
    by_size: dict[int, list[int]] = {}
    for i in indices:
        by_size.setdefault(ctxs[i].num_positive_tasks, []).append(i)
    for n, rows in by_size.items():
        if n == 0:
            # No positive task: the only subset is empty and the schedule is
            # trivial; the scalar path handles this degenerate case exactly.
            for i in rows:
                results[i] = _scalar_solve(problems[i], plan.descriptors[i],
                                           ctxs[i], auto=plan.auto, validate=True)
            continue
        chunk = max(1, _SUBSET_TENSOR_BUDGET // max(1, (2 ** n) * n))
        for start in range(0, len(rows), chunk):
            _tricrit_chain_chunk(problems, ctxs, rows[start:start + chunk],
                                 n, plan, results)


def _tricrit_chain_chunk(problems: list[BiCritProblem],
                         ctxs: list[SolverContext], rows: list[int], n: int,
                         plan: BatchPlan,
                         results: list[SolveResult | None]) -> None:
    B = len(rows)
    masks = _subset_masks(n)                      # (S, n)
    S = masks.shape[0]

    # The chain order of the mapping is the enumeration order of the scalar
    # solver (mapping.tasks_on(0) restricted to positive weights).
    task_ids: list[list[TaskId]] = []
    W = np.empty((B, n))
    for row, i in enumerate(rows):
        order = [t for t in problems[i].mapping.tasks_on(0)
                 if problems[i].graph.weight(t) > 0]
        task_ids.append(order)
        W[row] = [problems[i].graph.weight(t) for t in order]

    deadlines = np.array([problems[i].deadline for i in rows])
    pfmin = np.array([problems[i].platform.fmin for i in rows])
    pfmax = np.array([problems[i].platform.fmax for i in rows])
    alpha = np.array([problems[i].platform.energy_model.exponent for i in rows])

    # Batched speed floors: one vectorized reliability bisection for every
    # (instance, task) pair, seeded back into the contexts' caches.
    floors = batch_reexecution_floors([problems[i] for i in rows],
                                      contexts=[ctxs[i] for i in rows])
    reexec_floor = np.array([[floors[row][t] for t in task_ids[row]]
                             for row in range(B)])
    frel = np.array([ctxs[i].reliability.frel for i in rows])

    eff, durations, energy = _tricrit_chain_core(W, deadlines, pfmin, pfmax,
                                                 alpha, reexec_floor, frel,
                                                 masks)

    best = np.argmin(energy, axis=1)
    for row, i in enumerate(rows):
        s = int(best[row])
        # The kernel serves both exact chain solvers (blind enumeration and
        # pruned search reach the same optimum); the label follows the
        # dispatched descriptor so batch results match the scalar path.
        label = plan.descriptors[i].name
        if not np.isfinite(energy[row, s]):
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver=label,
                metadata=_lazy_metadata({"subsets_evaluated": S},
                                        plan.descriptors[i], ctxs[i], plan.auto))
            continue
        speeds = {t: float(eff[row, s, col] / durations[row, s, col])
                  for col, t in enumerate(task_ids[row])}
        reexecuted = frozenset(t for col, t in enumerate(task_ids[row])
                               if masks[s, col])
        results[i] = LazyScheduleResult(
            builder=_TricritChainScheduleBuilder(problems[i], speeds,
                                                 reexecuted),
            energy=float(energy[row, s]), status="optimal",
            solver=label,
            metadata=_lazy_metadata(
                {"reexecuted": sorted(map(str, reexecuted)),
                 "subsets_evaluated": S},
                plan.descriptors[i], ctxs[i], plan.auto))


# ----------------------------------------------------------------------
# columnar kernels: ProblemBatch rows straight to the array programs
# ----------------------------------------------------------------------
@dataclass
class _WireScheduleBuilder:
    """Deferred schedule for a columnar fast row, built from its payload.

    The wire response path reads ``result.wire_view`` and the persistent
    store reads :meth:`executions`; neither touches ``result.schedule``.
    Only direct library callers pay for materialising the ``Problem`` here.
    ``speeds`` and ``weights`` are in payload task order, which is the
    parsed graph's task order.  Picklable, so columnar results survive the
    campaign pool.
    """

    payload: Any
    speeds: dict[str, list[float]]
    weights: list[float]

    def executions(self) -> dict[str, list[list[list[float]]]]:
        """Each task's executions as ``[[f, duration]]`` interval lists.

        ``Execution.at_speed``'s arithmetic: a zero-weight execution lasts
        0.0, and a re-executed task has two executions of the full weight.
        """
        return {t: [[[f, w / f if w > 0 else 0.0]] for f in fs]
                for (t, fs), w in zip(self.speeds.items(), self.weights)}

    def __call__(self) -> Schedule:
        from ..core.problem_io import problem_from_dict
        problem = problem_from_dict(self.payload)
        decisions = {
            t: TaskDecision(t, tuple(Execution.from_intervals(run)
                                     for run in runs))
            for t, runs in self.executions().items()}
        return Schedule(problem.mapping, problem.platform, decisions)


def schedule_executions(result: SolveResult
                        ) -> dict[str, list[list[list[float]]]] | None:
    """``result``'s schedule as ``{task: [[[f, duration], ...], ...]}``,
    every execution's interval list (``None`` without a schedule).

    This is the persistent store's record format.  An unbuilt columnar row
    gives it straight from the kernel's speeds
    (:meth:`_WireScheduleBuilder.executions`), so no ``Problem`` or
    ``Schedule`` is built to store it.
    """
    if isinstance(result, LazyScheduleResult) and isinstance(
            result._schedule_builder, _WireScheduleBuilder):
        return result._schedule_builder.executions()
    schedule = result.schedule
    if schedule is None:
        return None
    return {str(t): [[[float(f), float(d)] for f, d in e.intervals]
                     for e in decision.executions]
            for t, decision in schedule.decisions.items()}


def _columnar_dispatch(batch: ProblemBatch, i: int, solver_name: str,
                       auto: bool) -> dict:
    """The scalar ``metadata["dispatch"]`` record, built from columns only.

    Key order and value types match ``_dispatch_record`` +
    ``SolverContext.describe()`` exactly (both kernel solvers are exact and
    CONTINUOUS; parser-verified rows are chains or forks, and the context's
    structure label probes ``is_chain`` first).
    """
    cols = batch.columns
    return {
        "solver": solver_name,
        "auto": auto,
        "exactness": "exact",
        "kind": "tricrit" if cols["kind"][i] == KIND_TRICRIT else "bicrit",
        "speed_model": "continuous",
        "structure": "chain" if cols["is_chain"][i] else "fork",
        "tasks": int(cols["num_tasks"][i]),
        "positive_tasks": int(cols["num_positive"][i]),
        "processors": int(cols["mapping_processors"][i]),
        "single_processor": bool(cols["single_processor"][i]),
        "one_task_per_processor": bool(cols["one_task_per_processor"][i]),
    }


def _padded_weights(batch: ProblemBatch, rows: np.ndarray, *,
                    skip_first: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather ragged row weights into a zero-padded ``(rows, width)`` matrix.

    One fancy-index over the flat weight array -- no per-row Python loop.
    ``skip_first`` drops each row's first task (the fork source).
    """
    offsets = batch.offsets
    counts = offsets[rows + 1] - offsets[rows]
    if skip_first:
        counts = counts - 1
    width = int(counts.max()) if len(counts) else 0
    col = np.arange(width, dtype=np.int64)
    mask = col[None, :] < counts[:, None]
    start = offsets[rows] + (1 if skip_first else 0)
    flat = (start[:, None] + col[None, :])[mask]
    out = np.zeros((len(rows), width))
    out[mask] = batch.weights[flat]
    return out, mask, counts


def _solve_batch_columnar(batch: ProblemBatch, solver: str, *,
                          validate: bool = True,
                          plan: ColumnarBatchPlan | None = None,
                          **options: Any) -> list[SolveResult]:
    """Solve a :class:`ProblemBatch`: fast rows columnar, the rest legacy."""
    if plan is None:
        plan = _plan_batch_columnar(batch, solver, validate=validate,
                                    vectorize=not options)
    results: list[SolveResult | None] = [None] * len(batch)
    if plan.legacy_indices:
        legacy = solve_batch(plan.legacy_problems, solver,
                             contexts=plan.legacy_contexts, validate=validate,
                             plan=plan.legacy_plan, **options)
        for i, result in zip(plan.legacy_indices, legacy):
            results[i] = result
    chain_rows = np.flatnonzero(plan.routes == ROUTE_CHAIN)
    if len(chain_rows):
        _solve_chain_columnar(batch, chain_rows, plan, results)
    fork_rows = np.flatnonzero(plan.routes == ROUTE_FORK)
    if len(fork_rows):
        _solve_fork_columnar(batch, fork_rows, plan, results)
    tri_rows = np.flatnonzero(plan.routes == ROUTE_TRICRIT)
    if len(tri_rows):
        _solve_tricrit_columnar(batch, tri_rows, plan, results)
    return results  # type: ignore[return-value]


def _solve_chain_columnar(batch: ProblemBatch, rows: np.ndarray,
                          plan: ColumnarBatchPlan,
                          results: list[SolveResult | None]) -> None:
    """Chain closed form off the columns; same array program as the object path."""
    cols = batch.columns
    totals = cols["total_weight"][rows]
    deadlines = cols["deadline"][rows]
    fmin = cols["fmin"][rows]
    fmax = cols["fmax"][rows]
    alpha = cols["alpha"][rows]
    raw_speed, infeasible, speed, energy = _chain_core(totals, deadlines,
                                                       fmin, fmax, alpha)

    # Wire-view makespans: the serialized schedule walk is a left-fold sum
    # of task durations in mapping (== payload) order; cumsum reproduces
    # that fold exactly (trailing zero-pad adds are exact).
    W, _, _ = _padded_weights(batch, rows)
    safe_speed = np.where(speed > 0, speed, 1.0)
    durations = np.where(W > 0, W / safe_speed[:, None], 0.0)
    makespans = np.cumsum(durations, axis=1)[:, -1]

    # Bulk scalar extraction: `.tolist()` converts a whole column to native
    # Python floats/bools in one C pass, where per-row `float(arr[row])`
    # would pay the NumPy scalar-boxing tax 10k times over.
    rows_l = rows.tolist()
    infeasible_l = infeasible.tolist()
    totals_l = totals.tolist()
    energy_l = energy.tolist()
    speed_l = speed.tolist()
    fmax_l = fmax.tolist()
    makespans_l = makespans.tolist()
    weights_l = batch.weights.tolist()
    offsets_l = batch.offsets.tolist()
    task_ids = batch.task_ids
    payloads = batch.payloads
    # Identical rows get the *same* dispatch dict (read-only once emitted):
    # a 10k-row sweep over one structure builds one record, not 10k.
    dispatch_memo: dict[tuple[int, int], dict] = {}
    num_positive_l = cols["num_positive"].tolist()
    for row, i in enumerate(rows_l):
        if infeasible_l[row]:
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[chain]",
                metadata={
                    "message": (f"chain needs speed {raw_speed[row]:.6g} > "
                                f"fmax={fmax_l[row]:.6g} to meet the deadline"),
                    "dispatch": _columnar_dispatch(batch, i,
                                                   "bicrit-closed-form",
                                                   plan.auto),
                })
            continue
        if totals_l[row] == 0:
            row_energy, row_speed = 0.0, 0.0
        else:
            row_energy, row_speed = energy_l[row], speed_l[row]
        fmax_row = fmax_l[row]
        o0 = offsets_l[i]
        o1 = offsets_l[i + 1]
        row_weights = weights_l[o0:o1]
        speeds = {t: [row_speed] if w > 0 else [fmax_row]
                  for t, w in zip(task_ids[i], row_weights)}
        # Chain-routed rows are bicrit, single-processor, in-order chains:
        # (tasks, positive_tasks) pins down the whole dispatch record.
        memo_key = (o1 - o0, num_positive_l[i])
        dispatch = dispatch_memo.get(memo_key)
        if dispatch is None:
            dispatch = _columnar_dispatch(batch, i, "bicrit-closed-form",
                                          plan.auto)
            dispatch_memo[memo_key] = dispatch
        result = LazyScheduleResult(
            builder=_WireScheduleBuilder(payloads[i], speeds, row_weights),
            energy=row_energy, status="optimal",
            solver="continuous-closed-form[chain]",
            metadata={"route": "chain", "closed_form_energy": row_energy,
                      "dispatch": dispatch})
        result.wire_view = {"makespan": makespans_l[row],
                            "speeds": speeds, "num_reexecuted": 0,
                            "dispatch": dispatch}
        results[i] = result


def _solve_fork_columnar(batch: ProblemBatch, rows: np.ndarray,
                         plan: ColumnarBatchPlan,
                         results: list[SolveResult | None]) -> None:
    """Fork theorem off the columns; same array program as the object path."""
    cols = batch.columns
    w0 = batch.weights[batch.offsets[rows]]
    W, _, counts = _padded_weights(batch, rows, skip_first=True)
    deadlines = cols["deadline"][rows]
    fmin = cols["fmin"][rows]
    fmax = cols["fmax"][rows]
    alpha = cols["alpha"][rows]
    (source_blocks, child_blocks, child_violation, clamped,
     source_speed, child_speed, energy) = _fork_core(w0, W, deadlines,
                                                     fmin, fmax, alpha)

    # Wire-view makespans: every child finishes at fl(d_source + d_child);
    # padded columns contribute d_source + 0.0, which mirrors the source's
    # own finish time in the scalar max over all finishes.
    safe_src = np.where(source_speed > 0, source_speed, 1.0)
    src_dur = np.where(w0 > 0, w0 / safe_src, 0.0)
    safe_child = np.where(child_speed > 0, child_speed, 1.0)
    child_dur = np.where(W > 0, W / safe_child, 0.0)
    makespans = (src_dur[:, None] + child_dur).max(axis=1)

    for row, i in enumerate(rows):
        i = int(i)
        ids = batch.task_ids[i]
        dispatch = _columnar_dispatch(batch, i, "bicrit-closed-form",
                                      plan.auto)
        if source_blocks[row]:
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[fork]",
                metadata={"message": ("the source alone exceeds the deadline "
                                      "at fmax; no solution"),
                          "dispatch": dispatch})
            continue
        if child_blocks[row]:
            col = int(np.argmax(child_violation[row]))
            child = ids[1 + col]
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[fork]",
                metadata={"message": (
                    f"child {child!r} needs speed "
                    f"{child_speed[row, col]:.6g} "
                    f"> fmax={fmax[row]:.6g}; no solution"),
                    "dispatch": dispatch})
            continue
        if clamped[row]:
            # fmin-clamped rows leave the algebraic formula exactly like the
            # object path: materialise and run the scalar front-end.
            problem = batch.problem(i)
            ctx = SolverContext.for_problem(problem)
            results[i] = _scalar_solve(problem,
                                       get_solver("bicrit-closed-form"),
                                       ctx, auto=plan.auto, validate=True)
            continue
        row_energy = float(energy[row])
        fmax_row = float(fmax[row])
        n_children = int(counts[row])
        speeds = {ids[0]: ([float(source_speed[row])] if w0[row] > 0
                           else [fmax_row])}
        for col in range(n_children):
            w = W[row, col]
            speeds[ids[1 + col]] = ([float(child_speed[row, col])] if w > 0
                                    else [fmax_row])
        result = LazyScheduleResult(
            builder=_WireScheduleBuilder(batch.payloads[i], speeds,
                                         batch.row_weights(i).tolist()),
            energy=row_energy, status="optimal",
            solver="continuous-closed-form[fork]",
            metadata={"route": "fork", "closed_form_energy": row_energy,
                      "dispatch": dispatch})
        result.wire_view = {"makespan": float(makespans[row]),
                            "speeds": speeds, "num_reexecuted": 0,
                            "dispatch": dispatch}
        results[i] = result


def _solve_tricrit_columnar(batch: ProblemBatch, rows: np.ndarray,
                            plan: ColumnarBatchPlan,
                            results: list[SolveResult | None]) -> None:
    """TRI-CRIT chain subsets off the columns, grouped and chunked by size."""
    npos = batch.columns["num_positive"]
    by_size: dict[int, list[int]] = {}
    for i in rows:
        by_size.setdefault(int(npos[i]), []).append(int(i))
    for n, group in by_size.items():
        chunk = max(1, _SUBSET_TENSOR_BUDGET // max(1, (2 ** n) * n))
        for start in range(0, len(group), chunk):
            _tricrit_columnar_chunk(batch, group[start:start + chunk], n,
                                    plan, results)


def _tricrit_columnar_chunk(batch: ProblemBatch, rows: list[int], n: int,
                            plan: ColumnarBatchPlan,
                            results: list[SolveResult | None]) -> None:
    B = len(rows)
    masks = _subset_masks(n)
    S = masks.shape[0]
    rows_a = np.asarray(rows, dtype=np.int64)
    cols = batch.columns

    # Positive weights in payload (== mapping) order.
    W = np.empty((B, n))
    for row, i in enumerate(rows):
        weights = batch.row_weights(i)
        W[row] = weights[weights > 0]

    deadlines = cols["deadline"][rows_a]
    pfmin = cols["fmin"][rows_a]
    pfmax = cols["fmax"][rows_a]
    alpha = cols["alpha"][rows_a]
    frel = cols["rel_frel"][rows_a]

    # Same vectorized reliability bisection as batch_reexecution_floors,
    # fed from the reliability columns instead of context caches.
    floors = _floor_array(W.reshape(-1),
                          np.repeat(cols["rel_fmin"][rows_a], n),
                          np.repeat(cols["rel_fmax"][rows_a], n),
                          np.repeat(cols["rel_lambda0"][rows_a], n),
                          np.repeat(cols["rel_sensitivity"][rows_a], n),
                          np.repeat(frel, n))
    floors = np.maximum(np.repeat(pfmin, n), floors)
    reexec_floor = floors.reshape(B, n)

    eff, durations, energy = _tricrit_chain_core(W, deadlines, pfmin, pfmax,
                                                 alpha, reexec_floor, frel,
                                                 masks)

    # Auto rows dispatch to the chain enumeration (priority order); a named
    # ``tricrit-pruned`` keeps its own label, like the scalar path would.
    label = plan.solver if plan.solver == "tricrit-pruned" \
        else "tricrit-chain-exact"
    best = np.argmin(energy, axis=1)
    for row, i in enumerate(rows):
        s = int(best[row])
        dispatch = _columnar_dispatch(batch, i, label, plan.auto)
        if not np.isfinite(energy[row, s]):
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver=label,
                metadata={"subsets_evaluated": S, "dispatch": dispatch})
            continue
        f = eff[row, s] / durations[row, s]           # (n,) exec speeds
        per_exec = W[row] / f
        task_time = per_exec * (1.0 + masks[s])       # exact x2 on re-exec
        makespan = float(np.cumsum(task_time)[-1])    # left fold, in order
        fmax_row = float(pfmax[row])
        speeds: dict[str, list[float]] = {}
        reexec_names: list[str] = []
        cursor = 0
        row_weights = batch.row_weights(i).tolist()
        for t, w in zip(batch.task_ids[i], row_weights):
            if w > 0:
                fv = float(f[cursor])
                if masks[s, cursor]:
                    speeds[t] = [fv, fv]
                    reexec_names.append(t)
                else:
                    speeds[t] = [fv]
                cursor += 1
            else:
                speeds[t] = [fmax_row]
        result = LazyScheduleResult(
            builder=_WireScheduleBuilder(batch.payloads[i], speeds,
                                         row_weights),
            energy=float(energy[row, s]), status="optimal",
            solver=label,
            metadata={"reexecuted": sorted(reexec_names),
                      "subsets_evaluated": S, "dispatch": dispatch})
        result.wire_view = {"makespan": makespan, "speeds": speeds,
                            "num_reexecuted": int(masks[s].sum()),
                            "dispatch": dispatch}
        results[i] = result

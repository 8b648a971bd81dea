"""Batched solver evaluation: whole instance lists as single NumPy programs.

:func:`solve_batch` is the library's one solve pipeline: the scalar front
door :func:`repro.solvers.dispatch.solve` is a batch of one, and the API
engine hands it every request's cache misses, so a row gets the same
answer from every entry point.  Campaign grids (the fork sweeps, the E13
solver-ablation cells, Pareto curves) would otherwise pay per-instance
Python overhead that dominates the cheap closed-form solvers of the
paper's chain/fork analysis.  :func:`solve_batch` takes a columnar
:class:`~repro.core.columnar.ProblemBatch` (an instance list is converted
with :meth:`~repro.core.columnar.ProblemBatch.from_problems`), routes every
row by masked predicates over its columns, and evaluates each route as one
array program straight off the ragged weight arrays:

* **chain closed form** -- every single-processor CONTINUOUS chain is one
  row of a ``total_weight / deadline`` array; speeds, feasibility and
  energies for the whole batch come out of a handful of NumPy ops;
* **fork theorem** -- child weights are gathered into one padded matrix; the
  unsaturated formula, the paper's ``fmax`` saturation case and the
  per-child feasibility checks are evaluated for all forks at once (rows
  whose speeds would clamp at ``fmin`` run the closed-form solver's own
  entry point, exactly where it falls back to the convex program);
* **TRI-CRIT chain subset enumeration** -- instances with the same number of
  positive tasks go through :func:`chain_subset_minimum` together: the
  restricted "slow everything equally" allocations of *every subset of every
  instance* are solved by one exact vectorized water-fill over a
  ``(batch, subsets, tasks)`` tensor, and the per-task re-execution speed
  floors come from one array call of the closed form
  :func:`~repro.core.reliability.equal_reexecution_floor`.  The same helper
  is the body of
  :func:`~repro.continuous.tricrit_chain.solve_tricrit_chain_exact`, so the
  chain enumeration exists once;
* every other row (anything the strict columnar parser could not certify,
  any other solver, solver-specific options) is admissibility-checked and
  runs through its solver's descriptor (the per-row route), so
  ``solve_batch`` takes *every* admissible solver and ``solver="auto"``.

Results of the array routes are :class:`LazyScheduleResult` objects:
energies, statuses and metadata are computed by the vectorized kernels, and
an eager ``wire_view`` carries the response fields, while the per-task
``Schedule`` object (pure Python construction cost) is only materialised
when ``result.schedule`` is first touched.  Agreement with each solver's
own entry point is property-tested in ``tests/test_batch_solvers.py``,
entry-point parity in ``tests/test_entry_point_parity.py``, and the speedup
is recorded by ``benchmarks/bench_batch_solvers.py``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from ..core.columnar import KIND_BICRIT, KIND_TRICRIT, ProblemBatch
from ..core.gcscope import paused_gc
from ..core.problems import BiCritProblem, SolveResult
from ..core.reliability import equal_reexecution_floor
from ..core.schedule import Execution, Schedule, TaskDecision
from .context import SolverContext
from .descriptors import (
    InadmissibleSolverError,
    Solver,
    UnknownSolverOptionError,
)
from .dispatch import select_solver
from .registry import get_solver

__all__ = [
    "solve_batch",
    "plan_batch",
    "ColumnarBatchPlan",
    "LazyScheduleResult",
    "ScheduleBuilder",
    "batch_is_feasible",
]

#: Kernel labels reported by :meth:`ColumnarBatchPlan.kernel_counts` (and
#: asserted on by the tests).
KERNEL_CHAIN = "chain-closed-form"
KERNEL_FORK = "fork-closed-form"
KERNEL_TRICRIT_CHAIN = "tricrit-chain-subsets"
KERNEL_SCALAR = "scalar-fallback"

#: Soft cap on ``batch * subsets * tasks`` elements held at once by the
#: TRI-CRIT chain kernel (:func:`chain_subset_minimum` chunks to it).
_SUBSET_TENSOR_BUDGET = 4_000_000


# ----------------------------------------------------------------------
# lazy results
# ----------------------------------------------------------------------
class LazyScheduleResult(SolveResult):
    """A :class:`SolveResult` whose ``Schedule`` is built on first access.

    The vectorized kernels compute energies and feasibility for a whole
    batch without touching Python-level schedule objects; constructing the
    per-task :class:`~repro.core.schedule.TaskDecision` dictionaries is
    deferred until a caller actually reads ``result.schedule`` (experiment
    drivers that only consume ``result.energy`` never pay for it).  The
    engine's store hits are results of this class too, over the record.
    """

    def __init__(self, *, builder: Callable[[], Schedule] | None,
                 energy: float,
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
#: Route codes of :class:`ColumnarBatchPlan` -- one small int per row, so
#: grouping a batch is a masked scatter over the route column instead of
#: per-instance Python probes.
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
#: through the per-row route (which produces the solver's own errors and
#: results for solvers the array kernels do not implement).
_COLUMNAR_SOLVERS = frozenset({"auto", "bicrit-closed-form", "tricrit-chain-exact"})


@dataclass
class ColumnarBatchPlan:
    """How :func:`solve_batch` will evaluate one :class:`ProblemBatch`.

    Fast rows (``routes != ROUTE_LEGACY``) are solved straight off the
    columns without materialising ``Problem`` objects; legacy rows are
    materialised, admissibility-checked, and run through their
    ``legacy_descriptors`` entry.
    """

    solver: str
    auto: bool
    batch: ProblemBatch
    routes: np.ndarray                       # int8 route code per row
    legacy_indices: list[int]
    legacy_descriptors: list[Solver]

    def kernel_counts(self) -> dict[str, int]:
        """Instance count per kernel, legacy rows under ``KERNEL_SCALAR``."""
        counts: dict[str, int] = {}
        for route, kernel in _ROUTE_KERNELS.items():
            hits = int(np.count_nonzero(self.routes == route))
            if hits:
                counts[kernel] = hits
        if self.legacy_indices:
            counts[KERNEL_SCALAR] = len(self.legacy_indices)
        return counts


def plan_batch(problems: ProblemBatch | Sequence[BiCritProblem],
               solver: str = "auto", *,
               vectorize: bool = True) -> ColumnarBatchPlan:
    """Route every row of a batch by masked column predicates.

    ``problems`` is a :class:`~repro.core.columnar.ProblemBatch`, or an
    instance list converted with ``ProblemBatch.from_problems``.  A fast
    route is only assigned when the columnar parser *verified* the facts
    the scalar admissibility checks would probe (structure, mapping shape,
    speed-model kind, size caps), so a fast row is admissible for its
    kernel solver by construction.  Every other row is materialised and
    checked the way :func:`~repro.solvers.dispatch.select_solver` and the
    descriptors check it: ``solver="auto"``
    selects through :func:`repro.solvers.dispatch.select_solver` (raising
    :class:`~repro.solvers.dispatch.NoAdmissibleSolverError` for a row
    nothing admits), a named solver raises
    :class:`~repro.solvers.descriptors.InadmissibleSolverError` like the
    descriptor itself would.  ``vectorize=False`` sends every row down the
    per-row route (used when solver-specific options are passed, which the
    array kernels do not understand).
    """
    batch = (problems if isinstance(problems, ProblemBatch)
             else ProblemBatch.from_problems(problems))
    auto = solver == "auto"
    named = None if auto else get_solver(solver)
    cols = batch.columns
    routes = np.full(len(batch), ROUTE_LEGACY, dtype=np.int8)
    if (vectorize and solver in _COLUMNAR_SOLVERS
            and not cols["fallback"].all()):
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
        if solver in ("auto", "tricrit-chain-exact"):
            # Positive-weight tasks only (the scalar guards and the
            # descriptor admissibility agree on that count), up to the chain
            # enumeration's admissibility cap: past it, auto dispatch picks
            # the pruned search and a named ``tricrit-chain-exact`` is
            # inadmissible.  A named ``tricrit-pruned`` takes the per-row
            # route, so it reports its own search's counters.
            limit = get_solver("tricrit-chain-exact").max_tasks
            tri = (tricrit & cols["single_processor"]
                   & cols["mapping_in_order"]
                   & (cols["num_positive"] >= 1)
                   & (cols["num_positive"] <= limit))
            routes[tri] = ROUTE_TRICRIT
    legacy_indices = np.flatnonzero(routes == ROUTE_LEGACY).tolist()
    descriptors: list[Solver] = []
    for i in legacy_indices:
        problem = batch.problem(i)
        ctx = SolverContext.for_problem(problem)
        if named is None:
            descriptors.append(select_solver(problem, context=ctx))
            continue
        ok, reason = named.admissible(problem, ctx)
        if not ok:
            raise InadmissibleSolverError(
                f"solver {named.name!r} is not admissible for this "
                f"instance: {reason}")
        descriptors.append(named)
    return ColumnarBatchPlan(solver=solver, auto=auto, batch=batch,
                             routes=routes, legacy_indices=legacy_indices,
                             legacy_descriptors=descriptors)


# ----------------------------------------------------------------------
# the batch front door
# ----------------------------------------------------------------------
def solve_batch(problems: ProblemBatch | Sequence[BiCritProblem],
                solver: str = "auto", **options: Any) -> list[SolveResult]:
    """Solve many instances at once: the library's one solve pipeline.

    :func:`repro.solvers.dispatch.solve` is ``solve_batch([problem],
    solver, **options)[0]``.  The return value is one
    :class:`~repro.core.problems.SolveResult` per input row, in input
    order; a row's answer does not depend on the rows beside it, so it is
    the same bits whichever entry point (``solve``, a list, a
    ``ProblemBatch``, the engine, the wire) brought it here.  A solver's
    own entry point, called through its descriptor, agrees within floating
    point tolerance (and on statuses and re-execution subsets, modulo
    degenerate energy ties).

    ``problems`` is a :class:`~repro.core.columnar.ProblemBatch` or an
    instance list (converted with ``ProblemBatch.from_problems``; its rows
    keep their ``Problem`` objects).  Rows the vectorized kernels
    understand -- single-processor CONTINUOUS chains, fully parallel
    CONTINUOUS forks, and TRI-CRIT chain subset enumerations -- are solved
    straight off the ragged weight arrays and carry an eager ``wire_view``
    for the API layer; every other row runs its solver's descriptor.
    Solver-specific ``options`` force the per-row route for the whole batch
    (the kernels only implement the descriptor-default configurations).
    The kernels allocate a few objects per row, so automatic GC is paused
    for the call (:func:`repro.core.gcscope.paused_gc`).  ``context`` and
    ``validate`` are the descriptor's own arguments, not solver options:
    passing either raises
    :class:`~repro.solvers.descriptors.UnknownSolverOptionError`.
    """
    reserved = sorted({"context", "validate"} & options.keys())
    if reserved:
        raise UnknownSolverOptionError(
            f"solve_batch takes no {' or '.join(map(repr, reserved))} "
            "option: every row is checked against its solver's admissible "
            "class; to run a solver outside it, call its descriptor, "
            "get_solver(name)(problem, validate=False)")
    with paused_gc():
        plan = plan_batch(problems, solver, vectorize=not options)
        batch = plan.batch
        results: list[SolveResult | None] = [None] * len(batch)
        for i, descriptor in zip(plan.legacy_indices,
                                 plan.legacy_descriptors):
            results[i] = _scalar_solve(batch.problem(i), descriptor,
                                       auto=plan.auto, **options)
        if len(plan.legacy_indices) < len(batch):
            for route, kernel in ((ROUTE_CHAIN, _solve_chain_columnar),
                                  (ROUTE_FORK, _solve_fork_columnar),
                                  (ROUTE_TRICRIT, _solve_tricrit_columnar)):
                rows = np.flatnonzero(plan.routes == route)
                if len(rows):
                    kernel(batch, rows, plan, results)
    return results  # type: ignore[return-value]


def _scalar_solve(problem: BiCritProblem, descriptor: Solver, *, auto: bool,
                  **options: Any) -> SolveResult:
    """The per-row route: the descriptor's result plus the
    ``metadata["dispatch"]`` record of what ran and why.

    The plan already checked admissibility, so the descriptor does not
    check it again.
    """
    ctx = SolverContext.for_problem(problem)
    result = descriptor(problem, context=ctx, validate=False, **options)
    result.metadata.setdefault("dispatch", {
        "solver": descriptor.name,
        "auto": auto,
        "exactness": descriptor.exactness,
        **ctx.describe(),
    })
    return result


# ----------------------------------------------------------------------
# batched feasibility / speed-floor primitives
# ----------------------------------------------------------------------
def batch_is_feasible(problems: Sequence[BiCritProblem]) -> np.ndarray:
    """Vectorized ``ctx.is_feasible`` over a batch of instances.

    Single-processor instances reduce to one ``total_weight / fmax <= D``
    array comparison (their fmax makespan is the serialised sum); other
    mappings fall back to the context's memoized makespan walk.  The
    computed verdicts are seeded into each (memoized) context so later
    scalar accesses of ``ctx.is_feasible`` are free.
    """
    ctxs = [SolverContext.for_problem(p) for p in problems]
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


# ----------------------------------------------------------------------
# array programs shared by the kernels
# ----------------------------------------------------------------------
def _chain_core(totals: np.ndarray, deadlines: np.ndarray, fmin: np.ndarray,
                fmax: np.ndarray, alpha: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chain closed form as one array program over per-row columns."""
    raw_speed = totals / deadlines
    infeasible = (totals > 0) & (raw_speed > fmax * (1.0 + 1e-12))
    speed = np.maximum(raw_speed, fmin)
    energy = totals * speed ** (alpha - 1.0)
    return raw_speed, infeasible, speed, energy


def _fold_columns(M: np.ndarray) -> np.ndarray:
    """Row sums of ``M`` as a left fold over its columns, in column order."""
    total = np.zeros(M.shape[0])
    for column in M.T:
        total = total + column
    return total


def _fork_core(w0: np.ndarray, W: np.ndarray, deadlines: np.ndarray,
               fmin: np.ndarray, fmax: np.ndarray, alpha: np.ndarray) -> tuple:
    """The fork theorem (saturation cases included) over per-row columns.

    ``W`` is the zero-padded ``(rows, max_children)`` child-weight matrix.
    A row's answer must not depend on the padded width: the powers take a
    full-shape exponent (numpy picks its power loop by the operands'
    strides) and the row sums are left folds, to which padded zeros add
    exactly nothing.
    """
    exponent = np.broadcast_to(alpha[:, None], W.shape).copy()
    norm = _fold_columns(W ** exponent) ** (1.0 / alpha)
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

    # fmin clamping invalidates the algebraic formula; the closed-form
    # solver's entry point falls through to the SP recursion / convex
    # program there, so those rows take the per-instance path.
    speeds_all = np.concatenate([source_speed[:, None], child_speed], axis=1)
    clamped = np.any((speeds_all > 0) & (speeds_all < fmin[:, None] * (1.0 - 1e-12)),
                     axis=1)

    energy = (w0 * source_speed ** (alpha - 1.0)
              + _fold_columns(W * child_speed ** (exponent - 1.0)))
    return (source_blocks, child_blocks, child_violation, clamped,
            source_speed, child_speed, energy)


@lru_cache(maxsize=32)
def _subset_codes(n: int) -> np.ndarray:
    """Every re-execution subset of ``n`` tasks as an ``n``-bit code, in
    enumeration order (task ``j`` is bit ``n - 1 - j``).

    The order is by subset size, then ``itertools.combinations`` order --
    for a fixed size, descending code order -- which is the order of the
    other subset enumerations (``continuous.exhaustive._reexec_subsets``)
    and of the test oracle ``best_reexec_subset``: the first strict minimum
    therefore picks the same optimal subset.
    """
    codes = np.arange(2 ** n, dtype=np.int64)
    size = np.zeros_like(codes)
    for j in range(n):
        size += (codes >> j) & 1
    ordered = codes[np.lexsort((-codes, size))]
    ordered.flags.writeable = False     # cached and shared by every call
    return ordered


def _code_masks(codes: np.ndarray, n: int) -> np.ndarray:
    """The ``(len(codes), n)`` re-execution mask rows of subset codes."""
    bits = np.unpackbits(codes.astype(">u4").view(np.uint8).reshape(-1, 4),
                         axis=1)
    return np.ascontiguousarray(bits[:, 32 - n:]).view(bool)


def _fill_cells(W: np.ndarray, deadlines: np.ndarray, pfmax: np.ndarray,
                reexec_floor: np.ndarray, single_floor: np.ndarray,
                masks: np.ndarray, upper: np.ndarray, bi: np.ndarray,
                si: np.ndarray) -> np.ndarray:
    """Exact water-fill scale ``t`` of the (instance ``bi``, subset ``si``)
    cells, each with ``min_time < D < max_time``.

    Every task leaves its lower bound at ``t = 1/fmax`` and reaches its
    upper bound at ``1/floor``: a re-executed task at its own re-execution
    floor, the single runs of a row all at once at the row's single floor.
    One ``(B, n + 1)`` argsort of those event times orders the events of
    every cell of a row; a cell's events differ only in which tasks they
    saturate.  With the events sorted, the total at event ``j`` is
    ``t_j * E_j + H_j`` -- ``H_j`` the upper bounds saturated so far, ``E_j``
    the effective weight still free -- and ``t`` is solved linearly on the
    segment before the first event whose total reaches ``D``.  Each cell is
    computed on its own, so the rows batched beside it cannot move it.
    """
    n = W.shape[1]
    at = np.concatenate([1.0 / reexec_floor, 1.0 / single_floor[:, None]],
                        axis=1)                                  # (B, n+1)
    order = np.argsort(at, axis=1, kind="stable")[bi]            # (M, n+1)
    mask = masks[si]
    up = upper[bi, si]                                           # (M, n)
    single = ~mask
    gain = np.concatenate([np.where(mask, 2.0 * W[bi], 0.0),
                           (W[bi] * single).sum(axis=1)[:, None]], axis=1)
    sat = np.concatenate([np.where(mask, up, 0.0),
                          (up * single).sum(axis=1)[:, None]], axis=1)
    m = np.arange(bi.size)
    rows = m[:, None]
    at = np.take_along_axis(at[bi], order, axis=1)
    gain = gain[rows, order]
    # H_j: a forward sum of saturated bounds; E_j: a suffix sum of the gains
    # still to come, with no subtraction to cancel.
    saturated = np.cumsum(sat[rows, order], axis=1)
    free = np.zeros((bi.size, n + 2))
    free[:, :n + 1] = np.cumsum(gain[:, ::-1], axis=1)[:, ::-1]
    D = deadlines[bi]
    reached = at * free[:, 1:] + saturated >= D[:, None]
    # No event reaches D only when the sums round below max_time: the cell
    # then saturates at its last event.
    j = np.where(reached.any(axis=1), reached.argmax(axis=1), n)
    prev_sat = np.where(j > 0, saturated[m, j - 1], 0.0)
    prev_free = free[m, j]
    left = np.where(j > 0, at[m, j - 1], 1.0 / pfmax[bi])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(prev_free > 0.0, (D - prev_sat) / prev_free, at[m, j])
    return np.minimum(np.maximum(t, left), at[m, j])


def _tricrit_chain_core(W: np.ndarray, deadlines: np.ndarray,
                        pfmin: np.ndarray, pfmax: np.ndarray,
                        alpha: np.ndarray, reexec_floor: np.ndarray,
                        frel: np.ndarray, masks: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masked subset water-filling over a ``(B, S, n)`` tensor.

    Returns ``(eff, durations, energy)`` with ``energy`` already ``inf`` on
    infeasible (instance, subset) rows.
    """
    single_floor = np.maximum(frel, pfmin)

    eff = W[:, None, :] * (1.0 + masks[None, :, :])              # (B, S, n)
    floor = np.where(masks[None, :, :], reexec_floor[:, None, :],
                     single_floor[:, None, None])
    bad_floor = np.any(floor > pfmax[:, None, None] * (1.0 + 1e-12), axis=2)

    lower = eff / pfmax[:, None, None]
    upper = eff / floor
    min_time = lower.sum(axis=2)
    infeasible = bad_floor | (min_time > deadlines[:, None] * (1.0 + 1e-12))

    # Water-filling: t with sum(clip(t*eff, lower, upper)) equal to the
    # deadline, or the loose end when every task fits at its upper bound.
    max_time = upper.sum(axis=2)
    t = np.where(max_time <= deadlines[:, None],
                 (1.0 / floor).max(axis=2, initial=0.0) + 1.0, 0.0)
    active = (~infeasible & (min_time < deadlines[:, None])
              & (deadlines[:, None] < max_time))
    bi, si = np.nonzero(active)
    if bi.size:
        t[bi, si] = _fill_cells(W, deadlines, pfmax, reexec_floor,
                                single_floor, masks, upper, bi, si)

    durations = np.clip(t[:, :, None] * eff, lower, upper)
    # A full-shape exponent: numpy picks its power loop by the operands'
    # strides, and a broadcast exponent's strides change with the batch
    # shape, which moves the energy by an ulp.
    exponent = np.broadcast_to(alpha[:, None, None] - 1.0, eff.shape).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        # Speed form ``w f^(alpha-1)``, like the chain and fork kernels:
        # ``w^alpha / d^(alpha-1)`` underflows to 0/0 on tiny weights.
        energy = np.sum(eff * (eff / durations) ** exponent, axis=2)
    energy[infeasible] = np.inf
    return eff, durations, energy


def chain_subset_minimum(W: np.ndarray, deadlines: np.ndarray,
                         pfmin: np.ndarray, pfmax: np.ndarray,
                         alpha: np.ndarray, rel: Sequence[np.ndarray]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact TRI-CRIT chain optimum of each row, over all ``2^n`` subsets.

    ``W`` holds each row's positive task weights in processor order; the
    other arguments are per-row columns, ``rel`` the reliability model's
    ``(fmin, fmax, lambda0, sensitivity, frel)`` that
    :func:`~repro.core.reliability.equal_reexecution_floor` takes.  Returns
    ``(energy, speeds, reexecuted)``: per row the first strict minimum's
    energy (``inf`` when no subset is feasible), its per-task execution
    speeds and its re-execution mask.  No tensor holds more than
    :data:`_SUBSET_TENSOR_BUDGET` cells: the rows are processed in chunks
    that fit it with every subset, and a row whose subsets alone exceed it
    in chunks of subsets.  Each cell is computed on its own, so neither the
    chunking nor the rows beside a row move its answer.
    """
    B, n = W.shape
    frel = rel[4]
    reexec_floor = np.maximum(pfmin[:, None], equal_reexecution_floor(
        W, *(column[:, None] for column in rel)))
    codes = _subset_codes(n)
    row_step = max(1, _SUBSET_TENSOR_BUDGET // (codes.size * max(1, n)))
    energy = np.full(B, np.inf)
    speeds = np.zeros((B, n))
    reexecuted = np.zeros((B, n), dtype=bool)
    for r0 in range(0, B, row_step):
        r = slice(r0, r0 + row_step)
        b = min(row_step, B - r0)
        step = max(1, _SUBSET_TENSOR_BUDGET // max(1, b * n))
        for start in range(0, codes.size, step):
            masks = _code_masks(codes[start:start + step], n)
            eff, durations, cells = _tricrit_chain_core(
                W[r], deadlines[r], pfmin[r], pfmax[r], alpha[r],
                reexec_floor[r], frel[r], masks)
            s = np.argmin(cells, axis=1)
            rows = np.flatnonzero(cells[np.arange(b), s] < energy[r])
            s = s[rows]
            energy[r0 + rows] = cells[rows, s]
            speeds[r0 + rows] = eff[rows, s] / durations[rows, s]
            reexecuted[r0 + rows] = masks[s]
    return energy, speeds, reexecuted


# ----------------------------------------------------------------------
# kernels: ProblemBatch rows straight to the array programs
# ----------------------------------------------------------------------
@dataclass
class ScheduleBuilder:
    """Deferred schedule for a columnar fast row or a stored record.

    The wire response path reads ``result.wire_view`` and the persistent
    store reads :meth:`executions`; neither touches ``result.schedule``.
    A kernel row carries its ``speeds`` and ``weights``, in payload task
    order, which is the parsed graph's task order; a store hit carries the
    record's interval lists as ``runs``.  The schedule is built against
    ``payload`` when it is a ``Problem`` object; a wire payload is parsed
    here instead.  Picklable, so columnar results survive the campaign
    pool.
    """

    payload: Any
    speeds: dict[str, list[float]] | None = None
    weights: list[float] | None = None
    runs: dict[str, list[list[list[float]]]] | None = None

    def executions(self) -> dict[str, list[list[list[float]]]]:
        """Each task's executions as ``[[f, duration]]`` interval lists.

        ``Execution.at_speed``'s arithmetic: a zero-weight execution lasts
        0.0, and a re-executed task has two executions of the full weight.
        """
        if self.runs is not None:
            return self.runs
        return {t: [[[f, w / f if w > 0 else 0.0]] for f in fs]
                for (t, fs), w in zip(self.speeds.items(), self.weights)}

    def __call__(self) -> Schedule:
        problem = self.payload
        if not isinstance(problem, BiCritProblem):
            from ..core.problem_io import problem_from_dict
            problem = problem_from_dict(problem)
        # Records name tasks by ``str(task)``; kernel rows' ids are strings.
        task_of = {str(t): t for t in problem.graph.tasks()}
        decisions = {}
        for name, runs in self.executions().items():
            task = task_of[name]
            decisions[task] = TaskDecision(task, tuple(
                Execution.from_intervals(run) for run in runs))
        return Schedule(problem.mapping, problem.platform, decisions)


def schedule_executions(result: SolveResult
                        ) -> dict[str, list[list[list[float]]]] | None:
    """``result``'s schedule as ``{task: [[[f, duration], ...], ...]}``,
    every execution's interval list (``None`` without a schedule).

    This is the persistent store's record format.  An unbuilt columnar row
    gives it straight from the kernel's speeds
    (:meth:`ScheduleBuilder.executions`), so no ``Problem`` or
    ``Schedule`` is built to store it.
    """
    if isinstance(result, LazyScheduleResult) and isinstance(
            result._schedule_builder, ScheduleBuilder):
        return result._schedule_builder.executions()
    schedule = result.schedule
    if schedule is None:
        return None
    return {str(t): [[[float(f), float(d)] for f, d in e.intervals]
                     for e in decision.executions]
            for t, decision in schedule.decisions.items()}


def _columnar_dispatch(batch: ProblemBatch, i: int, solver_name: str,
                       auto: bool) -> dict:
    """The ``metadata["dispatch"]`` record, built from columns only.

    Key order and value types match :func:`_scalar_solve`'s record +
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
                    skip_first: bool = False) -> np.ndarray:
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
    return out


def _solve_chain_columnar(batch: ProblemBatch, rows: np.ndarray,
                          plan: ColumnarBatchPlan,
                          results: list[SolveResult | None]) -> None:
    """Chain closed form off the columns."""
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
    W = _padded_weights(batch, rows)
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
            builder=ScheduleBuilder(payloads[i], speeds, row_weights),
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
    """Fork theorem off the columns."""
    cols = batch.columns
    w0 = batch.weights[batch.offsets[rows]]
    W = _padded_weights(batch, rows, skip_first=True)
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

    # Bulk scalar extraction, as in the chain kernel.
    source_blocks_l = source_blocks.tolist()
    child_blocks_l = child_blocks.tolist()
    clamped_l = clamped.tolist()
    energy_l = energy.tolist()
    source_speed_l = source_speed.tolist()
    child_speed_l = child_speed.tolist()
    fmax_l = fmax.tolist()
    makespans_l = makespans.tolist()
    weights_l = batch.weights.tolist()
    offsets_l = batch.offsets.tolist()
    num_tasks_l = cols["num_tasks"].tolist()
    num_positive_l = cols["num_positive"].tolist()
    processors_l = cols["mapping_processors"].tolist()
    # Fork-routed rows are bicrit, one task per processor, and chains only
    # at two tasks: (tasks, positive_tasks, processors) pins down the
    # whole dispatch record.
    dispatch_memo: dict[tuple[int, int, int], dict] = {}
    for row, i in enumerate(rows.tolist()):
        ids = batch.task_ids[i]
        memo_key = (num_tasks_l[i], num_positive_l[i], processors_l[i])
        dispatch = dispatch_memo.get(memo_key)
        if dispatch is None:
            dispatch = _columnar_dispatch(batch, i, "bicrit-closed-form",
                                          plan.auto)
            dispatch_memo[memo_key] = dispatch
        if source_blocks_l[row]:
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver="continuous-closed-form[fork]",
                metadata={"message": ("the source alone exceeds the deadline "
                                      "at fmax; no solution"),
                          "dispatch": dispatch})
            continue
        if child_blocks_l[row]:
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
        if clamped_l[row]:
            # fmin-clamped rows leave the algebraic formula: materialise and
            # run the closed-form solver's entry point.
            results[i] = _scalar_solve(batch.problem(i),
                                       get_solver("bicrit-closed-form"),
                                       auto=plan.auto)
            continue
        row_energy = energy_l[row]
        fmax_row = fmax_l[row]
        row_weights = weights_l[offsets_l[i]:offsets_l[i + 1]]
        row_speeds = [source_speed_l[row], *child_speed_l[row]]
        speeds = dict(zip(ids, [[f] if w > 0 else [fmax_row]
                                for w, f in zip(row_weights, row_speeds)]))
        result = LazyScheduleResult(
            builder=ScheduleBuilder(batch.payloads[i], speeds,
                                         row_weights),
            energy=row_energy, status="optimal",
            solver="continuous-closed-form[fork]",
            metadata={"route": "fork", "closed_form_energy": row_energy,
                      "dispatch": dispatch})
        result.wire_view = {"makespan": makespans_l[row],
                            "speeds": speeds, "num_reexecuted": 0,
                            "dispatch": dispatch}
        results[i] = result


def _solve_tricrit_columnar(batch: ProblemBatch, rows: np.ndarray,
                            plan: ColumnarBatchPlan,
                            results: list[SolveResult | None]) -> None:
    """TRI-CRIT chain subsets off the columns, grouped by size."""
    npos = batch.columns["num_positive"]
    by_size: dict[int, list[int]] = {}
    for i in rows:
        by_size.setdefault(int(npos[i]), []).append(int(i))
    for n, group in by_size.items():
        _tricrit_columnar_group(batch, group, n, plan, results)


def _tricrit_columnar_group(batch: ProblemBatch, rows: list[int], n: int,
                            plan: ColumnarBatchPlan,
                            results: list[SolveResult | None]) -> None:
    B = len(rows)
    rows_a = np.asarray(rows, dtype=np.int64)
    cols = batch.columns

    # Positive weights in payload (== mapping) order.
    W = np.empty((B, n))
    for row, i in enumerate(rows):
        weights = batch.row_weights(i)
        W[row] = weights[weights > 0]

    pfmax = cols["fmax"][rows_a]
    energy, f, reexec = chain_subset_minimum(
        W, cols["deadline"][rows_a], cols["fmin"][rows_a], pfmax,
        cols["alpha"][rows_a],
        [cols[k][rows_a] for k in ("rel_fmin", "rel_fmax", "rel_lambda0",
                                   "rel_sensitivity", "rel_frel")])
    S = 2 ** n

    # Auto rows dispatch to the chain enumeration (priority order).
    label = "tricrit-chain-exact"
    for row, i in enumerate(rows):
        dispatch = _columnar_dispatch(batch, i, label, plan.auto)
        if not np.isfinite(energy[row]):
            results[i] = SolveResult(
                schedule=None, energy=math.inf, status="infeasible",
                solver=label,
                metadata={"subsets_evaluated": S, "dispatch": dispatch})
            continue
        per_exec = W[row] / f[row]                    # f: exec speeds
        task_time = per_exec * (1.0 + reexec[row])    # exact x2 on re-exec
        makespan = float(np.cumsum(task_time)[-1])    # left fold, in order
        fmax_row = float(pfmax[row])
        speeds: dict[str, list[float]] = {}
        reexec_names: list[str] = []
        cursor = 0
        row_weights = batch.row_weights(i).tolist()
        for t, w in zip(batch.task_ids[i], row_weights):
            if w > 0:
                fv = float(f[row, cursor])
                if reexec[row, cursor]:
                    speeds[t] = [fv, fv]
                    reexec_names.append(t)
                else:
                    speeds[t] = [fv]
                cursor += 1
            else:
                speeds[t] = [fmax_row]
        result = LazyScheduleResult(
            builder=ScheduleBuilder(batch.payloads[i], speeds,
                                         row_weights),
            energy=float(energy[row]), status="optimal",
            solver=label,
            metadata={"reexecuted": sorted(reexec_names),
                      "subsets_evaluated": S, "dispatch": dispatch})
        result.wire_view = {"makespan": makespan, "speeds": speeds,
                            "num_reexecuted": int(reexec[row].sum()),
                            "dispatch": dispatch}
        results[i] = result

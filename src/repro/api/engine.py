"""The long-lived :class:`Engine`: shared hot-path state behind the v1 API.

Before this facade existed every caller paid per-call setup that a service
must amortise: each ``solve()`` parsed its own problem, built its own
:class:`~repro.solvers.context.SolverContext`, and repeated solves of the
same instance re-ran the full solver.  The engine owns that state once, for
the life of the process:

* a **problem pool** -- problems arriving as JSON dicts are interned by
  content hash, so repeated requests for the same instance reuse one problem
  object and therefore one memoized ``SolverContext`` (structure probes,
  re-execution floors, compiled arrays);
* an **LRU result cache** -- solve results keyed by the same canonical
  content hash the campaign cache uses (problem JSON + solver + options);
  a repeat solve is a dictionary lookup, flagged ``cached`` in the response;
* a **batched submit path** -- :meth:`submit_batch` and :meth:`solve_batch`
  turn whole instance lists into one columnar
  :class:`~repro.core.columnar.ProblemBatch`, peel cache hits off by key,
  and hand the misses to :func:`repro.solvers.batch.solve_batch`, which
  solves each route (chain, fork, TRI-CRIT chain) as one array program;
* an optional **persistent store tier** -- when constructed with a
  :class:`repro.store.ResultStore`, the LRU becomes a write-through view
  over the shared on-disk tier (``results`` namespace): computed results
  are published as rebuildable schedule records, survive restarts, and are
  visible to every worker process sharing the store root;
* **request coalescing** -- identical in-flight solves are single-flighted
  per process: one leader computes, concurrent duplicates wait and share
  the answer (flagged ``cached`` on the wire);
* **service metrics** -- request counters, cache hit rates, store and
  coalescing counters, and a latency ring buffer (p50/p99) exported by
  ``GET /metrics``.

Two layers share one engine: the *object* layer (:meth:`submit` /
:meth:`submit_batch`, returning raw
:class:`~repro.core.problems.SolveResult`\\ s -- what the experiment drivers
and the campaign runner consume) and the *wire* layer (:meth:`solve` /
:meth:`solve_batch` / :meth:`simulate` / :meth:`campaign`, taking the typed
requests of :mod:`repro.api.types` and returning JSON-ready responses -- what
the HTTP service consumes).  Both are thread-safe; the HTTP server is a
``ThreadingHTTPServer``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import Counter, OrderedDict, deque
from collections.abc import Callable, Mapping, Sequence
from functools import partial
from typing import Any

from ..core.columnar import _KEY_ATTR, ProblemBatch, problem_content_key
from ..core.gcscope import paused_gc
from ..core.problems import BiCritProblem, SolveResult
from ..core.schedule import Execution, Schedule, TaskDecision
from ..simulation import run_monte_carlo
from ..solvers import SolverContext, get_solver
from ..solvers.batch import schedule_executions
from ..solvers.batch import solve_batch as _kernel_solve_batch
from ..solvers.dispatch import solve as _kernel_solve
from ..store import Coalescer, ResultStore
from ..store.canonical import canonical_blob as _canonical_blob
from ..store.canonical import canonicalize
from .errors import (
    INTERNAL_ERROR,
    INVALID_PROBLEM,
    INVALID_REQUEST,
    SIZE_LIMIT,
    UNKNOWN_SCENARIO,
    UNKNOWN_SOLVER,
    ApiError,
    error_from_exception,
)
from .types import (
    CampaignRequest,
    CampaignResponse,
    SimulateRequest,
    SimulateResponse,
    SolveBatchRequest,
    SolveBatchResponse,
    SolveRequest,
    SolveResponse,
)

__all__ = ["Engine", "problem_content_key",
           "DEFAULT_MAX_TASKS", "DEFAULT_MAX_BATCH", "DEFAULT_CACHE_SIZE"]

#: Positive-task cap per instance; larger requests get ``size_limit``.
DEFAULT_MAX_TASKS = 512
#: Instance cap per solve-batch request.
DEFAULT_MAX_BATCH = 4096
#: Result-cache capacity (LRU entries).
DEFAULT_CACHE_SIZE = 2048
#: Problem-pool capacity (interned parsed problems).
DEFAULT_POOL_SIZE = 4096
#: Per-route latency ring-buffer length for the p50/p99 metrics.
DEFAULT_LATENCY_WINDOW = 2048

#: Store namespace the engine's persistent results live under.
STORE_NAMESPACE = "results"

#: Bump when the persisted result payload layout changes; part of the
#: request key, so stale persistent records become silent misses instead of
#: parse failures.
_RESULT_SCHEMA_VERSION = 1

#: Waiter deadline on a coalesced in-flight solve (defensive; a leader that
#: outlives this has effectively hung).
DEFAULT_COALESCE_TIMEOUT = 600.0

# ``problem_content_key`` (and its ``_KEY_ATTR`` memo attribute) now live in
# ``repro.core.columnar`` so the columnar key templates and this scalar path
# share one definition without a core -> api import; both names are
# re-exported above unchanged for existing consumers.


class _LRU:
    """Minimal ordered-dict LRU (the engine holds the lock)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: OrderedDict[str, Any] = OrderedDict()

    def get(self, key: str) -> Any | None:
        value = self.data.get(key)
        if value is not None:
            self.data.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.capacity:
            self.data.popitem(last=False)

    def __len__(self) -> int:
        return len(self.data)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class Engine:
    """Long-lived solver service state: caches, batch routing, metrics."""

    def __init__(self, *, cache_size: int = DEFAULT_CACHE_SIZE,
                 problem_pool_size: int = DEFAULT_POOL_SIZE,
                 max_tasks: int | None = DEFAULT_MAX_TASKS,
                 max_batch: int | None = DEFAULT_MAX_BATCH,
                 latency_window: int = DEFAULT_LATENCY_WINDOW,
                 store: ResultStore | None = None,
                 coalesce_timeout: float = DEFAULT_COALESCE_TIMEOUT) -> None:
        """``max_tasks`` / ``max_batch`` are per-request admission caps
        (``size_limit`` beyond them); ``None`` disables a cap -- the shared
        in-process engine of :func:`repro.api.default_engine` runs
        uncapped, the HTTP server keeps the service defaults.  ``store``
        attaches the persistent shared tier: the in-memory LRU becomes a
        write-through view over it, so results survive restarts and are
        shared with other worker processes on the same root; ``None`` (the
        default, and what direct library users get) keeps the engine fully
        in-memory."""
        self.max_tasks = max_tasks
        self.max_batch = max_batch
        self.store = store
        self._results = _LRU(cache_size)  # guarded-by: _lock
        self._problems = _LRU(problem_pool_size)  # guarded-by: _lock
        self._coalescer = Coalescer()
        self._coalesce_timeout = coalesce_timeout
        self._lock = threading.RLock()
        self._counters: Counter[str] = Counter()  # guarded-by: _lock
        self._error_counters: Counter[str] = Counter()  # guarded-by: _lock
        self._latencies: dict[str, deque[float]] = {}  # guarded-by: _lock
        self._latency_window = latency_window
        self._created = time.time()

    # ------------------------------------------------------------------
    # problem intake
    # ------------------------------------------------------------------
    def resolve_problem(self, payload: Any) -> BiCritProblem:
        """A problem object from wire or in-process form.

        Dicts are parsed through :func:`repro.core.problem_io` and interned
        by content hash, so identical payloads share one problem object (and
        its memoized :class:`SolverContext`); problem objects pass through.
        Parse failures raise ``invalid_problem``.
        """
        if isinstance(payload, BiCritProblem):
            return payload
        if not isinstance(payload, Mapping):
            raise ApiError(INVALID_PROBLEM,
                           "problem must be a JSON object (the schema of "
                           f"repro.core.problem_io), got {type(payload).__name__}")
        try:
            pool_key = hashlib.sha256(_canonical_blob(payload)).hexdigest()
        except TypeError as exc:
            raise ApiError(INVALID_PROBLEM,
                           f"problem payload is not JSON-canonicalisable: {exc}") from exc
        with self._lock:
            problem = self._problems.get(pool_key)
        if problem is not None:
            return problem
        from ..core.problem_io import problem_from_dict

        try:
            problem = problem_from_dict(dict(payload))
        except (KeyError, ValueError, TypeError) as exc:
            raise ApiError(INVALID_PROBLEM,
                           f"cannot parse problem payload: "
                           f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            self._problems.put(pool_key, problem)
        return problem

    def _check_size(self, problem: BiCritProblem) -> None:
        if self.max_tasks is None:
            return
        # The cap is a positive-weight task cap (zero-weight tasks cost the
        # solvers nothing), counted exactly like every solver-side
        # enumerative limit so admission and admissibility cannot disagree.
        n = SolverContext.for_problem(problem).num_positive_tasks
        if n > self.max_tasks:
            raise ApiError(SIZE_LIMIT,
                           f"instance has {n} tasks, engine limit is "
                           f"{self.max_tasks}",
                           detail={"tasks": n, "max_tasks": self.max_tasks})

    @staticmethod
    def _check_solver_name(solver: str) -> None:
        if solver != "auto":
            try:
                get_solver(solver)
            except KeyError as exc:
                raise ApiError(UNKNOWN_SOLVER, str(exc.args[0])) from exc

    def _options_blob(self, solver: str,
                      options: Mapping[str, Any]) -> bytes:
        from .. import __version__

        try:
            # The version tag makes keys library-version-scoped: now that
            # results persist across processes, a record written by an older
            # repro (or an older payload schema) must miss, not deserialise.
            return _canonical_blob({
                "solver": solver, "options": dict(options),
                "version": f"repro-{__version__}/"
                           f"result-schema-{_RESULT_SCHEMA_VERSION}"})
        except TypeError as exc:
            raise ApiError(INVALID_REQUEST,
                           f"options are not JSON-canonicalisable: {exc}") from exc

    def _request_key(self, problem: BiCritProblem, solver: str,
                     options: Mapping[str, Any]) -> str:
        blob = self._options_blob(solver, options)
        return hashlib.sha256(
            (problem_content_key(problem) + "|").encode("utf-8") + blob).hexdigest()

    def _batch_request_keys(self, content_keys: Sequence[str], solver: str,
                            options: Mapping[str, Any]) -> list[str]:
        """Request keys for a whole batch in one canonicalisation pass.

        The solver/options/version blob is identical for every row of a
        batch, so it is serialised once and fused with each row's content
        hash -- instead of one ``json.dumps`` per instance as the scalar
        :meth:`_request_key` path would do.  Keys are byte-identical to the
        scalar path by construction (same blob, same fuse).
        """
        blob = self._options_blob(solver, options)
        return [hashlib.sha256((ck + "|").encode("utf-8") + blob).hexdigest()
                for ck in content_keys]

    # ------------------------------------------------------------------
    # object layer (internal consumers: experiments, campaign, benchmarks)
    # ------------------------------------------------------------------
    def submit(self, problem: Any, solver: str = "auto", *,
               options: Mapping[str, Any] | None = None,
               context: SolverContext | None = None,
               use_cache: bool = True) -> tuple[SolveResult, bool]:
        """Solve one instance through the engine; ``(result, was_cached)``.

        This is the in-process front door: the experiment drivers and the
        wire layer both route through it, so they share the result cache and
        the context pool.  Library exceptions
        (:class:`~repro.solvers.dispatch.NoAdmissibleSolverError`, ...)
        propagate unchanged -- translation into :class:`ApiError` codes is a
        wire-layer concern (admission failures such as ``size_limit`` /
        ``unknown_solver`` / ``invalid_problem`` are the engine's own and do
        raise :class:`ApiError` on both layers).
        """
        result, cached, _ = self._solve_entry(problem, solver,
                                              dict(options or {}),
                                              context, use_cache)
        return result, cached

    def _solve_entry(self, problem: Any, solver: str, options: dict[str, Any],
                     context: SolverContext | None,
                     use_cache: bool) -> tuple[SolveResult, bool, float]:
        problem = self.resolve_problem(problem)
        self._check_size(problem)
        self._check_solver_name(solver)
        key = self._request_key(problem, solver, options)
        if not use_cache:
            # Cache-bypassing solves never consulted the cache, so they do
            # not count against the hit rate, are not published to the
            # store, and are not coalesced (a refresh must recompute).
            t0 = time.perf_counter()
            result = _kernel_solve(problem, solver=solver, context=context,
                                   **options)
            return result, False, (time.perf_counter() - t0) * 1e3

        hit = self._cache_lookup(key, lambda: problem)
        if hit is not None:
            return hit, True, 0.0

        # Single-flight: concurrent identical requests elect one leader and
        # everyone else shares its answer (or its exception).
        flight, leader = self._coalescer.claim(key)
        if not leader:
            result = flight.wait(self._coalesce_timeout)
            with self._lock:
                self._counters["cache_hits"] += 1
                self._counters["coalesced_hits"] += 1
            return result, True, 0.0
        try:
            # Re-check under the flight: a result published between our
            # lookup and the claim (by a thread whose flight just retired)
            # would otherwise be recomputed.
            hit = self._cache_lookup(key, lambda: problem)
            if hit is not None:
                self._coalescer.resolve(flight, result=hit)
                return hit, True, 0.0
            t0 = time.perf_counter()
            result = _kernel_solve(problem, solver=solver, context=context,
                                   **options)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
        except BaseException as exc:
            self._coalescer.resolve(flight, error=exc)
            raise
        with self._lock:
            self._counters["cache_misses"] += 1
            self._results.put(key, result)
        self._store_put(key, result)
        self._coalescer.resolve(flight, result=result)
        return result, False, elapsed_ms

    # ------------------------------------------------------------------
    # the two-level cache (in-memory LRU over the persistent store)
    # ------------------------------------------------------------------
    def _cache_lookup(self, key: str, problem: Callable[[], BiCritProblem]
                      ) -> SolveResult | None:
        """LRU first, then the persistent tier; promotes store hits.

        ``problem`` is called only to rebuild a record the store actually
        holds, so a miss never materialises the instance.
        """
        with self._lock:
            hit = self._results.get(key)
            if hit is not None:
                self._counters["cache_hits"] += 1
                return hit
        if self.store is None:
            return None
        payload = self.store.get(key, STORE_NAMESPACE)
        result = (self._result_from_payload(payload, problem())
                  if payload is not None else None)
        with self._lock:
            if result is None:
                self._counters["store_misses"] += 1
                return None
            self._counters["cache_hits"] += 1
            self._counters["store_hits"] += 1
            self._results.put(key, result)
        return result

    def _store_put(self, key: str, result: SolveResult) -> None:
        """Publish a computed result to the shared tier (best effort --
        a full disk or read-only root must not fail the solve)."""
        if self.store is None:
            return
        try:
            self.store.put(key, self._result_to_payload(result),
                           STORE_NAMESPACE)
        except (OSError, TypeError, ValueError):
            pass

    @staticmethod
    def _result_to_payload(result: SolveResult) -> dict[str, Any]:
        """A JSON-rebuildable record of one solve.

        The schedule is stored as the full per-execution interval lists
        (not the flat wire ``speeds`` view, which conflates VDD-hopping
        intra-task intervals with re-executions), so the stored form
        round-trips to a real :class:`Schedule` against the interned
        problem -- simulate and the object layer work on a store hit.
        :func:`~repro.solvers.batch.schedule_executions` owns that format
        (columnar rows give it without building a ``Problem`` or
        ``Schedule``).
        """
        executions = schedule_executions(result)
        payload: dict[str, Any] = {
            "status": result.status,
            "solver": result.solver,
            "energy": float(result.energy),
            "metadata": {},
            "schedule": None,
        }
        for k, v in result.metadata.items():
            try:
                payload["metadata"][str(k)] = canonicalize(v)
            except TypeError:
                continue       # drop non-JSON metadata, keep the record
        if executions is not None:
            payload["schedule"] = {"executions": executions}
        return payload

    @staticmethod
    def _result_from_payload(payload: Any,
                             problem: BiCritProblem) -> SolveResult | None:
        """Rebuild a :class:`SolveResult` from a stored record; ``None``
        (a miss) when the record does not fit this problem."""
        if not isinstance(payload, Mapping):
            return None
        try:
            schedule = None
            sched_payload = payload.get("schedule")
            if sched_payload is not None:
                by_name = {str(t): t for t in problem.graph.tasks()}
                decisions = {}
                for name, runs in sched_payload["executions"].items():
                    task = by_name[name]
                    decisions[task] = TaskDecision(task, tuple(
                        Execution.from_intervals(run) for run in runs))
                schedule = Schedule(problem.mapping, problem.platform,
                                    decisions)
            return SolveResult(
                schedule=schedule, energy=float(payload["energy"]),
                status=str(payload["status"]), solver=str(payload["solver"]),
                metadata=dict(payload.get("metadata") or {}))
        except (KeyError, TypeError, ValueError):
            return None

    def submit_batch(self, problems: Sequence[Any], solver: str = "auto", *,
                     options: Mapping[str, Any] | None = None
                     ) -> list[tuple[SolveResult, bool]]:
        """Solve many instances; cache hits are peeled off, the misses run
        through the vectorized batch kernel.

        ``problems`` may mix wire payload dicts and ``Problem`` objects; it
        becomes one :class:`ProblemBatch` (``from_any``), so this and the
        wire :meth:`solve_batch` share one admission, peel and store path.
        Returns ``(result, was_cached)`` pairs in input order.  One
        inadmissible instance fails the whole request (matching the scalar
        dispatch semantics of :func:`repro.solvers.batch.plan_batch`);
        like :meth:`submit`, library exceptions propagate unchanged on this
        object layer.
        """
        with paused_gc():
            return self._submit_rows(ProblemBatch.from_any(problems), solver,
                                     dict(options or {}))

    def _submit_rows(self, batch: ProblemBatch, solver: str,
                     options: dict[str, Any]
                     ) -> list[tuple[SolveResult, bool]]:
        """Admission checks over columns, masked cache peel, and the miss
        rows handed to the batch kernel as a (sub-)``ProblemBatch``.

        Admission order (batch size, row parses, task caps, solver name)
        and errors match the scalar :meth:`submit` row by row.
        """
        n_rows = len(batch)
        if self.max_batch is not None and n_rows > self.max_batch:
            raise ApiError(SIZE_LIMIT,
                           f"batch has {n_rows} instances, engine "
                           f"limit is {self.max_batch}",
                           detail={"instances": n_rows,
                                   "max_batch": self.max_batch})
        # Fallback rows (payloads the strict columnar parser declined)
        # materialise through the interning resolver, in row order, so
        # parse errors surface where the scalar path raises them (a
        # ``Problem`` row passes through as itself).  Fast rows already
        # parsed strictly and cannot fail.
        for i in batch.fallback_indices():
            batch.set_problem(i, self.resolve_problem(batch.payloads[i]))
        if self.max_tasks is not None:
            fallback = batch.columns["fallback"]
            num_positive = batch.columns["num_positive"]
            if fallback.any() or (n_rows and
                                  num_positive.max() > self.max_tasks):
                # Row-order walk so the reported instance is the first one
                # over the cap; skipped entirely on the all-fast,
                # all-within-limit common case.  Positive-weight counting
                # mirrors the scalar ``_check_size``.
                for i in range(n_rows):
                    if fallback[i]:
                        self._check_size(batch.problem(i))
                    elif num_positive[i] > self.max_tasks:
                        n = int(num_positive[i])
                        raise ApiError(
                            SIZE_LIMIT,
                            f"instance has {n} tasks, engine limit is "
                            f"{self.max_tasks}",
                            detail={"tasks": n, "max_tasks": self.max_tasks})
        self._check_solver_name(solver)
        keys = self._batch_request_keys(batch.content_keys(), solver, options)
        out: list[tuple[SolveResult, bool] | None] = [None] * n_rows
        misses: list[int] = []
        if self.store is None:
            # LRU-only peel under one lock acquisition; never touches
            # ``batch.problem(i)``, keeping the all-miss path zero-copy.
            with self._lock:
                for i, key in enumerate(keys):
                    hit = self._results.get(key)
                    if hit is not None:
                        self._counters["cache_hits"] += 1
                        out[i] = (hit, True)
                    else:
                        misses.append(i)
        else:
            for i, key in enumerate(keys):
                hit = self._cache_lookup(key, partial(batch.problem, i))
                if hit is not None:
                    out[i] = (hit, True)
                else:
                    misses.append(i)
        with self._lock:
            self._counters["cache_misses"] += len(misses)
        if misses:
            sub = batch if len(misses) == n_rows else batch.take(misses)
            results = _kernel_solve_batch(sub, solver, **options)
            with self._lock:
                for i, result in zip(misses, results):
                    out[i] = (result, False)
                    self._results.put(keys[i], result)
            for i, result in zip(misses, results):
                self._store_put(keys[i], result)
        return [pair for pair in out if pair is not None]

    # ------------------------------------------------------------------
    # wire layer (the HTTP service)
    # ------------------------------------------------------------------
    def _build_response(self, result: SolveResult, *, cached: bool,
                        elapsed_ms: float) -> SolveResponse:
        view = getattr(result, "wire_view", None)
        if view is not None:
            # Columnar results carry their wire fields precomputed, so the
            # response never touches ``result.schedule`` (which would force
            # per-task object materialization on the zero-copy path).  The
            # dispatch record is already in canonical plain-typed form
            # (``canonicalize`` preserves insertion order, so re-running it
            # would return an equal dict).
            dispatch = view.get("dispatch")
            if dispatch is None:
                dispatch = canonicalize(result.metadata.get("dispatch", {}))
            return SolveResponse(
                energy=float(result.energy), status=result.status,
                solver=result.solver, feasible=result.feasible,
                makespan=view["makespan"], speeds=view["speeds"],
                num_reexecuted=view["num_reexecuted"],
                dispatch=dispatch,
                cached=cached, elapsed_ms=elapsed_ms)
        schedule = result.schedule
        speeds: dict[str, list[float]] = {}
        makespan = None
        num_reexecuted = 0
        if schedule is not None:
            speeds = {str(t): [float(x) for x in s]
                      for t, s in schedule.speed_assignment().items()}
            makespan = float(schedule.makespan())
            num_reexecuted = schedule.num_reexecuted()
        return SolveResponse(
            energy=float(result.energy), status=result.status,
            solver=result.solver, feasible=result.feasible,
            makespan=makespan, speeds=speeds, num_reexecuted=num_reexecuted,
            dispatch=canonicalize(result.metadata.get("dispatch", {})),
            cached=cached, elapsed_ms=elapsed_ms)

    @staticmethod
    def _translate(exc: Exception) -> ApiError:
        """Wire-layer error mapping (library exception -> stable code)."""
        return error_from_exception(exc)

    def solve(self, request: SolveRequest) -> SolveResponse:
        """``POST /v1/solve``: one instance through cache + dispatch."""
        try:
            result, cached, elapsed_ms = self._solve_entry(
                request.problem, request.solver, dict(request.options),
                None, True)
        except Exception as exc:
            raise self._translate(exc) from exc
        return self._build_response(result, cached=cached, elapsed_ms=elapsed_ms)

    def solve_batch(self, request: SolveBatchRequest) -> SolveBatchResponse:
        """``POST /v1/solve-batch``: grouped vectorized evaluation.

        The request's parsed :class:`ProblemBatch` (or its problem list,
        wire payloads and ``Problem`` objects alike, via ``from_any``) goes
        through the same admission, peel and kernel path as
        :meth:`submit_batch`: struct-of-arrays from JSON to kernel, no
        per-instance ``Problem`` objects on the all-miss hot path.
        """
        t0 = time.perf_counter()
        batch = request.batch
        if batch is None:
            batch = ProblemBatch.from_any(request.problems)
        # In-process consumers get the same GC relief as the HTTP server
        # scope (nested pauses are depth-counted no-ops).
        with paused_gc():
            try:
                pairs = self._submit_rows(batch, request.solver,
                                          dict(request.options))
            except Exception as exc:
                raise self._translate(exc) from exc
            executed = sum(1 for _, cached in pairs if not cached)
            per_miss_ms = ((time.perf_counter() - t0) * 1e3 / executed
                           if executed else 0.0)
            return SolveBatchResponse(results=[
                self._build_response(result, cached=cached,
                                     elapsed_ms=0.0 if cached else per_miss_ms)
                for result, cached in pairs])

    def simulate(self, request: SimulateRequest) -> SimulateResponse:
        """``POST /v1/simulate``: solve, then Monte-Carlo the schedule."""
        try:
            result, cached, elapsed_ms = self._solve_entry(
                request.problem, request.solver, dict(request.options),
                None, True)
        except Exception as exc:
            raise self._translate(exc) from exc
        if result.schedule is None:
            raise ApiError(INVALID_REQUEST,
                           f"solver {result.solver!r} returned status "
                           f"{result.status!r} without a schedule; nothing to "
                           "simulate", detail={"status": result.status})
        summary = run_monte_carlo(result.schedule, request.trials,
                                  seed=request.seed, engine=request.engine)
        return SimulateResponse(
            solve=self._build_response(result, cached=cached,
                                       elapsed_ms=elapsed_ms),
            trials=summary.trials,
            success_rate=float(summary.success_rate),
            success_stderr=float(summary.success_stderr),
            analytic_reliability=float(summary.analytic_reliability),
            mean_energy=float(summary.mean_energy),
            mean_makespan=float(summary.mean_makespan),
            max_makespan=float(summary.max_makespan),
            mean_attempts=float(summary.mean_attempts),
            engine=request.engine)

    def campaign(self, request: CampaignRequest) -> CampaignResponse:
        """``POST /v1/campaign``: one scenario through the campaign cache."""
        from ..campaign.cache import ResultCache
        from ..campaign.registry import get_scenario
        from ..campaign.runner import run_campaign

        try:
            spec = get_scenario(request.scenario)
        except KeyError as exc:
            raise ApiError(UNKNOWN_SCENARIO, str(exc.args[0])) from exc
        try:
            instance = spec.instance(request.params, smoke=request.smoke)
        except KeyError as exc:
            raise ApiError(INVALID_REQUEST, str(exc.args[0])) from exc
        outcome = run_campaign(
            [instance], name=f"api:{spec.name}", jobs=1,
            cache=ResultCache(request.cache_dir),
            use_cache=request.use_cache, refresh=request.refresh).results[0]
        if not outcome.ok:
            raise ApiError(INTERNAL_ERROR,
                           f"scenario {spec.name!r} failed: {outcome.error}",
                           detail={"scenario": spec.name,
                                   "failure": outcome.failure or {}})
        return CampaignResponse(
            scenario=spec.name, key=outcome.key, cached=outcome.cached,
            elapsed_seconds=outcome.elapsed_seconds,
            result=outcome.record["result"],
            params=canonicalize(instance.params))

    def solver_table(self) -> list[dict[str, Any]]:
        """``GET /v1/solvers``: the registry capability rows."""
        from ..solvers import capability_rows

        return capability_rows()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def record_request(self, route: str, seconds: float, ok: bool) -> None:
        """Count one handled request and feed the latency ring buffer."""
        with self._lock:
            self._counters[route] += 1
            if not ok:
                self._error_counters[route] += 1
            buf = self._latencies.get(route)
            if buf is None:
                buf = self._latencies[route] = deque(maxlen=self._latency_window)
            buf.append(seconds * 1e3)

    def health(self) -> dict[str, Any]:
        """``GET /healthz``: liveness payload (``pid`` identifies which
        worker of a ``--workers N`` fleet answered)."""
        from .. import __version__

        return {"status": "ok", "version": __version__,
                "api_version": "v1", "pid": os.getpid(),
                "uptime_seconds": time.time() - self._created}

    def store_stats(self) -> dict[str, Any]:
        """``GET /v1/store``: durable-tier snapshot plus coalescing state."""
        stats: dict[str, Any] = {"enabled": self.store is not None,
                                 "namespace": STORE_NAMESPACE,
                                 "coalesce": self._coalescer.stats()}
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    #: Internal counter names excluded from the per-route request table.
    _CACHE_COUNTERS = ("cache_hits", "cache_misses", "coalesced_hits",
                       "store_hits", "store_misses")

    def metrics(self) -> dict[str, Any]:
        """``GET /metrics``: counters, cache hit rate, store and coalescing
        counters, p50/p99 latency."""
        store_counters = self.store.counters() if self.store is not None else {}
        coalesce = self._coalescer.stats()
        with self._lock:
            hits = self._counters["cache_hits"]
            misses = self._counters["cache_misses"]
            store_section = {
                "enabled": self.store is not None,
                # Engine-observed persistent-tier traffic: hits served from
                # disk (after an LRU miss) vs consults that missed.
                "hits": self._counters["store_hits"],
                "misses": self._counters["store_misses"],
                # The store's own counters (writes/evictions/quarantine).
                "backend": store_counters,
                "coalesce": coalesce,
            }
            requests = {route: count for route, count in self._counters.items()
                        if route not in self._CACHE_COUNTERS}
            latency = {}
            for route, buf in self._latencies.items():
                values = sorted(buf)
                latency[route] = {
                    "count": len(values),
                    "p50_ms": _percentile(values, 0.50),
                    "p99_ms": _percentile(values, 0.99),
                    "mean_ms": sum(values) / len(values) if values else 0.0,
                }
            return {
                "uptime_seconds": time.time() - self._created,
                "pid": os.getpid(),
                "requests": requests,
                "requests_total": sum(requests.values()),
                "errors": dict(self._error_counters),
                "cache": {
                    "result_entries": len(self._results),
                    "result_capacity": self._results.capacity,
                    "problem_pool_entries": len(self._problems),
                    "hits": hits,
                    "misses": misses,
                    "coalesced_hits": self._counters["coalesced_hits"],
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                },
                "store": store_section,
                "limits": {"max_tasks": self.max_tasks,
                           "max_batch": self.max_batch},
                "latency_ms": latency,
            }

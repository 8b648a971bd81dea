"""The long-lived :class:`Engine`: shared hot-path state behind the v1 API.

Before this facade existed every caller paid per-call setup that a service
must amortise: repeated solves of the same instance re-ran the full
solver.  The engine owns that state once, for the life of the process:

* **one request path** -- every entry point (a single solve is a batch of
  one) turns its instances into a columnar
  :class:`~repro.core.columnar.ProblemBatch`, peels cache hits off by key,
  and hands the misses to :func:`repro.solvers.batch.solve_batch`, which
  solves each route (chain, fork, TRI-CRIT chain) as one array program;
  a row the columnar parser declines is parsed by its batch
  (:meth:`~repro.core.columnar.ProblemBatch.problem`);
* an **LRU result cache**, the one in-memory copy of a result -- solve
  results keyed by the same canonical content hash the campaign cache
  uses (problem JSON + solver + options); a repeat solve is a dictionary
  lookup, flagged ``cached`` in the response;
* an optional **persistent store tier** -- when constructed with a
  :class:`repro.store.ResultStore`, the LRU becomes a write-through view
  over the shared on-disk tier (``results`` namespace): computed results
  are published as rebuildable schedule records, survive restarts, and are
  visible to every worker process sharing the store root.  A store hit is
  answered from its record alone: no ``Problem`` and no ``Schedule`` is
  built unless a caller reads ``result.schedule``;
* **request coalescing** -- identical in-flight rows are single-flighted
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
from collections.abc import Mapping, Sequence
from typing import Any

from ..core.columnar import ProblemBatch, problem_content_key
from ..core.gcscope import paused_gc
from ..core.problems import BiCritProblem, SolveResult
from ..simulation import run_monte_carlo
from ..solvers import SolverContext, get_solver
from ..solvers.batch import (
    DISPATCH_KEYS,
    LazyScheduleResult,
    ScheduleBuilder,
    schedule_executions,
)
from ..solvers.batch import solve_batch as _kernel_solve_batch
# Not called here; kept because perfbench/spans.py patches it by name.
from ..solvers.dispatch import solve as _kernel_solve
from ..store import Coalescer, Flight, ResultStore
from ..store.canonical import canonical_blob as _canonical_blob
from ..store.canonical import (
    CanonicalText,
    canonical_object,
    canonicalize,
    plain_text,
    scalar_text,
)
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
#: Per-route latency ring-buffer length for the p50/p99 metrics.
DEFAULT_LATENCY_WINDOW = 2048

#: Store namespace the engine's persistent results live under.
STORE_NAMESPACE = "results"

#: Bump when the persisted result payload layout changes; part of the
#: request key, so stale persistent records become silent misses instead of
#: parse failures.  Version 2 records keep the wire ``makespan``.
_RESULT_SCHEMA_VERSION = 2

#: Waiter deadline on a coalesced in-flight solve (defensive; a leader that
#: outlives this has effectively hung).
DEFAULT_COALESCE_TIMEOUT = 600.0

#: A failed multi-row leader's answer to its waiters: solve the row yourself.
_RETRY = object()

# ``problem_content_key`` lives in ``repro.core.columnar``; it is
# re-exported above for existing consumers.


def _emitted_order(dispatch: Any) -> Any:
    """A stored ``dispatch`` record with its keys in the order the solvers
    emit them (:data:`~repro.solvers.batch.DISPATCH_KEYS`), any other
    keys after them in record order."""
    if not isinstance(dispatch, dict):
        return dispatch
    ordered = {k: dispatch[k] for k in DISPATCH_KEYS if k in dispatch}
    if len(ordered) < len(dispatch):
        ordered.update(dispatch)
    return ordered


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
    """Long-lived solver service state: the result LRU (the one in-memory
    copy of a result, over the optional persistent store), request
    coalescing, batch routing and metrics."""

    def __init__(self, *, cache_size: int = DEFAULT_CACHE_SIZE,
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
        self._coalescer = Coalescer()
        self._coalesce_timeout = coalesce_timeout
        self._lock = threading.RLock()
        self._counters: Counter[str] = Counter()  # guarded-by: _lock
        self._error_counters: Counter[str] = Counter()  # guarded-by: _lock
        self._latencies: dict[str, deque[float]] = {}  # guarded-by: _lock
        self._latency_window = latency_window
        self._created = time.time()
        # Options blob of an option-free request, by solver name.
        self._bare_blobs: dict[str, bytes] = {}

    # ------------------------------------------------------------------
    # problem intake
    # ------------------------------------------------------------------
    @staticmethod
    def _materialise(batch: ProblemBatch, i: int) -> None:
        """Parse fallback row ``i`` (a payload the strict columnar parser
        declined) into the batch's ``Problem``; a row that is not a JSON
        object, or does not parse, raises ``invalid_problem``."""
        payload = batch.payloads[i]
        if not isinstance(payload, (Mapping, BiCritProblem)):
            raise ApiError(INVALID_PROBLEM,
                           "problem must be a JSON object (the schema of "
                           f"repro.core.problem_io), got {type(payload).__name__}")
        try:
            batch.problem(i)
        except (KeyError, ValueError, TypeError) as exc:
            raise ApiError(INVALID_PROBLEM,
                           f"cannot parse problem payload: "
                           f"{type(exc).__name__}: {exc}") from exc

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
        if not options and solver in self._bare_blobs:
            return self._bare_blobs[solver]
        from .. import __version__

        try:
            # The version tag makes keys library-version-scoped: now that
            # results persist across processes, a record written by an older
            # repro (or an older payload schema) must miss, not deserialise.
            blob = _canonical_blob({
                "solver": solver, "options": dict(options),
                "version": f"repro-{__version__}/"
                           f"result-schema-{_RESULT_SCHEMA_VERSION}"})
        except TypeError as exc:
            raise ApiError(INVALID_REQUEST,
                           f"options are not JSON-canonicalisable: {exc}") from exc
        if not options:
            # Solver names reach here checked: the registry bounds the memo.
            self._bare_blobs[solver] = blob
        return blob

    def _batch_request_keys(self, content_keys: Sequence[str], solver: str,
                            options: Mapping[str, Any]) -> list[str]:
        """Request keys for a whole batch in one canonicalisation pass.

        The solver/options/version blob is identical for every row of a
        batch, so it is serialised once and fused with each row's content
        hash, instead of one ``json.dumps`` per instance.
        """
        blob = self._options_blob(solver, options)
        return [hashlib.sha256((ck + "|").encode("utf-8") + blob).hexdigest()
                for ck in content_keys]

    # ------------------------------------------------------------------
    # object layer (internal consumers: experiments, campaign, benchmarks)
    # ------------------------------------------------------------------
    def submit(self, problem: Any, solver: str = "auto", *,
               options: Mapping[str, Any] | None = None
               ) -> tuple[SolveResult, bool]:
        """Solve one instance as a batch of one; ``(result, was_cached)``.

        Library exceptions
        (:class:`~repro.solvers.dispatch.NoAdmissibleSolverError`, ...)
        propagate unchanged -- translation into :class:`ApiError` codes is a
        wire-layer concern (admission failures such as ``size_limit`` /
        ``unknown_solver`` / ``invalid_problem`` are the engine's own and do
        raise :class:`ApiError` on both layers).
        """
        return self._submit_rows(ProblemBatch.from_any([problem]), solver,
                                 dict(options or {}))[0]

    # ------------------------------------------------------------------
    # the two-level cache (in-memory LRU over the persistent store)
    # ------------------------------------------------------------------
    def _store_put(self, keys: Sequence[str],
                   results: Sequence[SolveResult]) -> None:
        """Publish computed results to the shared tier in one write call
        (best effort -- a record that cannot be built or written is
        skipped, and a full disk or read-only root must not fail the
        solve)."""
        if self.store is None:
            return
        records: list[tuple[str, CanonicalText]] = []
        shared: dict[int, tuple[Any, str]] = {}
        for key, result in zip(keys, results):
            try:
                records.append((key, self._render_record(result, shared)))
            except (TypeError, ValueError):
                continue
        try:
            self.store.put_many(records, STORE_NAMESPACE)
        except (OSError, TypeError, ValueError):
            pass

    @staticmethod
    def _render_record(result: SolveResult,
                       shared: dict[int, tuple[Any, str]]) -> CanonicalText:
        """A JSON-rebuildable record of one solve, as canonical JSON text.

        The record is ``{"energy", "makespan", "metadata", "schedule",
        "solver", "status"}``.  The schedule is stored as the full
        per-execution interval lists (not the flat wire ``speeds`` view,
        which conflates VDD-hopping intra-task intervals with
        re-executions), so the stored form round-trips to a real
        :class:`Schedule` against the row's problem -- simulate and the
        object layer work on a store hit.
        :func:`~repro.solvers.batch.schedule_executions` owns that format
        (columnar rows give it without building a ``Problem`` or
        ``Schedule``).  The wire ``makespan`` rides along, so a hit answers
        without walking a schedule.  Metadata values go through
        ``canonicalize``; one that cannot is dropped and the record kept.

        The text is rendered once, in its canonical form (keys sorted at
        every level, every scalar as the canonical encoder spells it), so
        the store writes it verbatim and hashes it once.  A metadata dict
        that rows share (the kernels' ``dispatch`` record) is rendered
        once per ``shared`` memo, which keeps each such dict alive under
        its ``id``.
        """
        metadata: dict[str, str] = {}
        for k, v in result.metadata.items():
            if type(v) is float or type(v) is str:
                text = scalar_text(v)
            elif type(v) is dict and id(v) in shared:
                text = shared[id(v)][1]
            else:
                try:
                    text = plain_text(canonicalize(v))
                except TypeError:
                    continue       # drop non-JSON metadata, keep the record
                if type(v) is dict:
                    shared[id(v)] = (v, text)
            metadata[str(k)] = text
        executions = schedule_executions(result)
        return canonical_object({
            "energy": scalar_text(float(result.energy)),
            "makespan": scalar_text(Engine._wire_view(result)["makespan"]),
            "metadata": canonical_object(metadata),
            "schedule": plain_text(None if executions is None
                                   else {"executions": executions}),
            "solver": scalar_text(result.solver),
            "status": scalar_text(result.status),
        })

    @staticmethod
    def _result_from_record(record: Any, row: Any,
                            task_names: Sequence[str]
                            ) -> LazyScheduleResult | None:
        """A store hit answered from its record alone; ``None`` (a miss)
        when the record does not fit the row.

        The wire view is read off the record (speeds flattened from the
        interval lists the way ``Schedule.speed_assignment`` flattens
        them), and the schedule is deferred to a
        :class:`~repro.solvers.batch.ScheduleBuilder` over the stored
        executions and ``row`` (the row's ``Problem`` or wire payload).
        The record fits when it names exactly the row's tasks.  A record
        written in canonical form lists its keys sorted, so the tasks are
        taken in the row's order and the ``dispatch`` record in the order
        the solvers emit it: the response is the same bytes whichever
        writer stored the record.
        """
        if not isinstance(record, Mapping):
            return None
        try:
            metadata = dict(record.get("metadata") or {})
            if "dispatch" in metadata:
                metadata["dispatch"] = _emitted_order(metadata["dispatch"])
            stored = record["schedule"]
            builder = None
            speeds: dict[str, list[float]] = {}
            num_reexecuted = 0
            if stored is not None:
                stored_runs = stored["executions"]
                if stored_runs.keys() != set(task_names):
                    return None
                runs = {}
                for name in task_names:
                    runs[name] = task_runs = stored_runs[name]
                    speeds[name] = [f for run in task_runs for f, _ in run]
                    num_reexecuted += len(task_runs) == 2
                builder = ScheduleBuilder(row, runs=runs)
            result = LazyScheduleResult(
                builder=builder, energy=float(record["energy"]),
                status=str(record["status"]), solver=str(record["solver"]),
                metadata=metadata)
            result.wire_view = {"makespan": record["makespan"],
                                "speeds": speeds,
                                "num_reexecuted": num_reexecuted,
                                "dispatch": metadata.get("dispatch", {})}
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        return result

    def submit_batch(self, problems: Sequence[Any], solver: str = "auto", *,
                     options: Mapping[str, Any] | None = None
                     ) -> list[tuple[SolveResult, bool]]:
        """Solve many instances; ``(result, was_cached)`` pairs in input
        order.

        ``problems`` may mix wire payload dicts and ``Problem`` objects
        (``ProblemBatch.from_any``).  One inadmissible instance fails the
        whole request (as :func:`repro.solvers.batch.plan_batch` does); like
        :meth:`submit`, library exceptions propagate unchanged.
        """
        with paused_gc():
            return self._submit_rows(ProblemBatch.from_any(problems), solver,
                                     dict(options or {}))

    def _submit_rows(self, batch: ProblemBatch, solver: str,
                     options: dict[str, Any]
                     ) -> list[tuple[SolveResult, bool]]:
        """The one request path: admission checks over columns (batch
        size, row parses, task caps, solver name; the first failing row
        raises), the cache peel, then the misses single-flighted through
        the batch kernel."""
        n_rows = len(batch)
        if self.max_batch is not None and n_rows > self.max_batch:
            raise ApiError(SIZE_LIMIT,
                           f"batch has {n_rows} instances, engine "
                           f"limit is {self.max_batch}",
                           detail={"instances": n_rows,
                                   "max_batch": self.max_batch})
        # Fallback rows materialise in row order, so the first bad row
        # raises its parse error; fast rows cannot fail.
        for i in batch.fallback_indices():
            self._materialise(batch, i)
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
        content_keys = batch.content_keys()
        keys = self._batch_request_keys(content_keys, solver, options)
        out: list[tuple[SolveResult, bool] | None] = [None] * n_rows
        misses = self._peel(batch, keys, out)
        while misses:
            misses = self._solve_misses(batch, keys, misses, solver, options,
                                        out)
        return out  # type: ignore[return-value]

    def _peel(self, batch: ProblemBatch, keys: list[str],
              out: list[tuple[SolveResult, bool] | None]) -> list[int]:
        """Serve cache hits into ``out``; returns the rows that missed.

        One LRU pass under one lock, then a store pass over the LRU misses.
        A store hit is answered from its record: no row is materialised.
        """
        misses: list[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                hit = self._results.get(key)
                if hit is None:
                    misses.append(i)
                else:
                    out[i] = (hit, True)
            self._counters["cache_hits"] += len(keys) - len(misses)
        if self.store is None or not misses:
            return misses
        still: list[int] = []
        for i in misses:
            record = self.store.get(keys[i], STORE_NAMESPACE)
            result = (None if record is None else self._result_from_record(
                record, batch.row_source(i), batch.task_names(i)))
            if result is None:
                still.append(i)
            else:
                out[i] = (result, True)
        with self._lock:
            self._counters["store_misses"] += len(still)
            self._counters["store_hits"] += len(misses) - len(still)
            self._counters["cache_hits"] += len(misses) - len(still)
            for i in misses:
                if out[i] is not None:
                    self._results.put(keys[i], out[i][0])  # type: ignore[index]
        return still

    def _solve_misses(self, batch: ProblemBatch, keys: list[str],
                      misses: list[int], solver: str, options: dict[str, Any],
                      out: list[tuple[SolveResult, bool] | None]) -> list[int]:
        """Single-flight solve of the missed rows; returns rows to retry.

        One flight per distinct key, so a duplicate row is solved once.
        The rows this request leads are solved as one sub-batch and their
        flights resolved before it waits on flights other requests lead,
        so it never waits while holding an unresolved flight.  A one-row
        leader's waiters sent that very row and share its error; when a
        larger sub-batch fails, the failing row is unknown, so its flights
        resolve to ``_RETRY`` and each waiter solves its own row.
        """
        first: dict[str, int] = {}
        led: dict[int, Flight] = {}
        waits: list[tuple[int, Flight]] = []
        for i in misses:
            if keys[i] not in first:
                first[keys[i]] = i
                flight, leader = self._coalescer.claim(keys[i])
                if leader:
                    led[i] = flight
                else:
                    waits.append((i, flight))
        try:
            # A flight that retired between the peel and the claim left its
            # result in the LRU: serve it instead of solving the row again.
            with self._lock:
                retired = {i: self._results.get(keys[i]) for i in led}
            for i, hit in retired.items():
                if hit is not None:
                    out[i] = (hit, True)
                    self._coalescer.resolve(led.pop(i), result=hit)
            rows = list(led)
            if rows:
                sub = batch if len(rows) == len(batch) else batch.take(rows)
                results = _kernel_solve_batch(sub, solver, **options)
                with self._lock:
                    for i, result in zip(rows, results):
                        out[i] = (result, False)
                        self._results.put(keys[i], result)
                self._store_put([keys[i] for i in rows], results)
                for i, result in zip(rows, results):
                    self._coalescer.resolve(led.pop(i), result=result)
        except BaseException as exc:
            for flight in led.values():
                if len(led) == 1:
                    self._coalescer.resolve(flight, error=exc)
                else:
                    self._coalescer.resolve(flight, result=_RETRY)
            raise
        retry: set[int] = set()
        for i, flight in waits:
            result = flight.wait(self._coalesce_timeout)
            if result is _RETRY:
                retry.add(i)
            else:
                out[i] = (result, True)
        pending: list[int] = []
        hits = 0
        for i in misses:
            j = first[keys[i]]
            if j in retry:
                pending.append(i)
            else:
                out[i] = pair = out[j]
                hits += pair[1]  # type: ignore[index]
        with self._lock:
            self._counters["cache_hits"] += hits
            self._counters["cache_misses"] += len(misses) - len(pending) - hits
            self._counters["coalesced_hits"] += len(waits) - len(retry)
        return pending

    # ------------------------------------------------------------------
    # wire layer (the HTTP service)
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_view(result: SolveResult) -> dict[str, Any]:
        """``result``'s response fields (``makespan``, ``speeds``,
        ``num_reexecuted``, ``dispatch``), computed at most once.

        Columnar rows and store hits carry theirs from the start; any
        other result walks its schedule once here and keeps the view, so
        a later LRU hit, or its store record, reads it back.
        """
        view = getattr(result, "wire_view", None)
        if view is None:
            schedule = result.schedule
            view = {"makespan": None, "speeds": {}, "num_reexecuted": 0,
                    "dispatch": canonicalize(
                        result.metadata.get("dispatch", {}))}
            if schedule is not None:
                view["makespan"] = float(schedule.makespan())
                view["speeds"] = {
                    str(t): [float(x) for x in s]
                    for t, s in schedule.speed_assignment().items()}
                view["num_reexecuted"] = schedule.num_reexecuted()
            result.wire_view = view
        return view

    def _build_response(self, result: SolveResult, *, cached: bool,
                        elapsed_ms: float) -> SolveResponse:
        view = self._wire_view(result)
        return SolveResponse(
            energy=float(result.energy), status=result.status,
            solver=result.solver, feasible=result.feasible,
            makespan=view["makespan"], speeds=view["speeds"],
            num_reexecuted=view["num_reexecuted"], dispatch=view["dispatch"],
            cached=cached, elapsed_ms=elapsed_ms)

    def solve(self, request: SolveRequest) -> SolveResponse:
        """``POST /v1/solve``: a solve-batch of one."""
        return self.solve_batch(SolveBatchRequest(
            [request.problem], request.solver, request.options)).results[0]

    def solve_batch(self, request: SolveBatchRequest) -> SolveBatchResponse:
        """``POST /v1/solve-batch``: grouped vectorized evaluation.

        The request's parsed :class:`ProblemBatch` (or its problem list,
        wire payloads and ``Problem`` objects alike, via ``from_any``) goes
        through the same admission, peel and kernel path as
        :meth:`submit_batch`: struct-of-arrays from JSON to kernel, no
        per-instance ``Problem`` objects on the all-miss hot path.
        """
        t0 = time.perf_counter()
        batch = request.batch or ProblemBatch.from_any(request.problems)
        # In-process consumers get the same GC relief as the HTTP server
        # scope (nested pauses are depth-counted no-ops).
        with paused_gc():
            try:
                pairs = self._submit_rows(batch, request.solver,
                                          dict(request.options))
            except Exception as exc:
                raise error_from_exception(exc) from exc
            executed = sum(1 for _, cached in pairs if not cached)
            per_miss_ms = ((time.perf_counter() - t0) * 1e3 / executed
                           if executed else 0.0)
            return SolveBatchResponse(results=[
                self._build_response(result, cached=cached,
                                     elapsed_ms=0.0 if cached else per_miss_ms)
                for result, cached in pairs])

    def simulate(self, request: SimulateRequest) -> SimulateResponse:
        """``POST /v1/simulate``: solve, then Monte-Carlo the schedule."""
        t0 = time.perf_counter()
        try:
            result, cached = self.submit(request.problem, request.solver,
                                         options=request.options)
        except Exception as exc:
            raise error_from_exception(exc) from exc
        elapsed_ms = 0.0 if cached else (time.perf_counter() - t0) * 1e3
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

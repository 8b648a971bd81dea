"""Fault-tolerant distributed campaign execution over the v1 HTTP API.

The paper this repository reproduces is about tolerating task failures by
re-executing work; this module applies the same discipline to the execution
stack itself.  A :func:`run_distributed_campaign` coordinator shards a
sweep's instance grid across N ``python -m repro serve`` workers, speaking
the existing ``POST /v1/campaign`` wire protocol -- the serve endpoints *are*
the worker protocol, no new RPC layer is introduced.

Fault-tolerance model (see DESIGN.md for the full state machine):

* **Leases.**  A task popped from the work queue is leased to one worker for
  at most ``RetryPolicy.request_timeout`` seconds (the per-request HTTP
  timeout).  A worker that dies, hangs or answers garbage forfeits the
  lease and the task returns to the queue.
* **Bounded retries with exponential backoff + jitter.**  Each requeue
  delays the task by ``base_delay * backoff**(attempt-1)``, capped at
  ``max_delay``, with a multiplicative jitter term so N workers retrying a
  flapping peer do not synchronise.  After ``max_attempts`` total attempts
  the instance fails permanently with a structured failure record.
* **Eviction and readmission.**  A worker whose connection is refused is
  evicted immediately; one that times out or drops connections repeatedly
  is evicted after ``evict_after`` consecutive transport failures.  Evicted
  workers are probed via ``GET /healthz`` every ``probe_interval`` seconds
  and readmitted as soon as they answer -- a restarted worker rejoins the
  sweep without coordinator intervention.
* **Graceful degradation.**  If every worker is lost while work remains,
  the coordinator drains the queue in-process (the same
  :func:`~repro.campaign.runner._execute` path the local runner uses), so a
  sweep never deadlocks on a dead fleet.
* **At-least-once + idempotence = exactly-once records.**  Execution is
  at-least-once (a timed-out request may still complete on the worker),
  but every completion lands in the content-addressed result cache under
  the same ``instance_key`` hash, and the coordinator ignores duplicate
  completions, so the *record* for each instance is written exactly once
  per content.  Completed instances persist in ``.repro-cache/`` as they
  finish; a re-launched coordinator peels them off as cache hits and only
  schedules the remainder -- runs are resumable after a coordinator kill.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence

from ..api.server import child_env
from .cache import ResultCache, canonicalize, instance_key, make_record
from .registry import get_scenario
from .runner import (
    CampaignResult,
    InstanceResult,
    _execute,
    failure_from_exception,
    failure_record,
)
from .spec import ScenarioInstance

__all__ = [
    "RetryPolicy",
    "WorkerError",
    "WorkerClient",
    "DistributedCampaignResult",
    "run_distributed_campaign",
    "parse_workers",
    "SpawnedWorker",
    "spawn_local_workers",
    "stop_workers",
]


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the lease/retry/requeue state machine."""

    #: Total execution attempts per instance before it fails permanently.
    max_attempts: int = 5
    #: First-retry delay in seconds; grows by ``backoff`` per attempt.
    base_delay: float = 0.1
    #: Ceiling on any single backoff delay.
    max_delay: float = 5.0
    #: Exponential growth factor between consecutive retries.
    backoff: float = 2.0
    #: Multiplicative jitter: the delay is scaled by ``1 + U(0, jitter)``.
    jitter: float = 0.5
    #: Lease duration: per-request HTTP timeout for ``POST /v1/campaign``.
    request_timeout: float = 120.0
    #: HTTP timeout for ``GET /healthz`` probes.
    probe_timeout: float = 2.0
    #: Seconds between health probes of an evicted worker.
    probe_interval: float = 0.25
    #: Consecutive transport failures before a worker is evicted
    #: (connection-refused evicts immediately regardless).
    evict_after: int = 2

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay,
                  self.base_delay * self.backoff ** max(0, attempt - 1))
        return raw * (1.0 + self.jitter * rng.random())


# ----------------------------------------------------------------------
# worker client
# ----------------------------------------------------------------------
class WorkerError(Exception):
    """One failed worker interaction, classified for the retry policy.

    ``kind`` is one of ``connect`` (nothing listening -- evict immediately),
    ``timeout`` (lease expired), ``transport`` (connection died or the reply
    was not HTTP), ``http`` (a 5xx reply), ``protocol`` (a 200 reply that
    does not parse as the expected payload) or ``app`` (a 4xx application
    error -- deterministic, not retryable).
    """

    def __init__(self, kind: str, message: str, *, retryable: bool = True,
                 status: int | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable
        self.status = status


class WorkerClient:
    """HTTP client for one ``repro serve`` worker, with health state."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self.healthy = True
        self.consecutive_failures = 0
        # Counters (written by the owning worker thread, read at the end).
        self.requests = 0
        self.successes = 0
        self.failures = 0
        self.evictions = 0
        self.readmissions = 0

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "evicted"
        return f"WorkerClient({self.name}, {state})"

    # -- raw transport --------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None,
                 timeout: float) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            # repro: allow[REP002] -- RPC request body; cache keys are
            # derived on the receiving side via canonical_blob
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    # -- protocol -------------------------------------------------------
    def run_instance(self, instance: ScenarioInstance, *, timeout: float,
                     cache_dir: str | None = None, use_cache: bool = True,
                     refresh: bool = False) -> dict:
        """``POST /v1/campaign`` for one instance; the parsed 200 payload.

        Raises :class:`WorkerError` for every failure mode, classified so
        the coordinator can decide between retry, eviction and permanent
        failure.
        """
        body = {
            "scenario": instance.scenario,
            "params": canonicalize(dict(instance.params)),
            "use_cache": use_cache,
            "refresh": refresh,
        }
        if cache_dir is not None:
            body["cache_dir"] = cache_dir
        self.requests += 1
        try:
            status, raw = self._request("POST", "/v1/campaign", body, timeout)
        except ConnectionRefusedError as exc:
            raise WorkerError("connect", f"{self.name}: {exc}") from exc
        except TimeoutError as exc:     # socket.timeout is an alias
            raise WorkerError(
                "timeout", f"{self.name}: no reply within {timeout:.0f}s "
                           "(lease expired)") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise WorkerError(
                "transport", f"{self.name}: {type(exc).__name__}: {exc}") from exc
        if status >= 500:
            snippet = raw[:200].decode("utf-8", "replace")
            raise WorkerError("http", f"{self.name}: HTTP {status}: {snippet}",
                              status=status)
        if status != 200:
            try:
                error = json.loads(raw.decode("utf-8"))["error"]
                detail = f"{error['code']}: {error.get('message', '')}"
            except (ValueError, KeyError, TypeError):
                detail = raw[:200].decode("utf-8", "replace")
            raise WorkerError("app", f"{self.name}: HTTP {status}: {detail}",
                              retryable=False, status=status)
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict) or "result" not in payload:
                raise ValueError("missing result field")
        except (ValueError, UnicodeDecodeError) as exc:
            raise WorkerError(
                "protocol",
                f"{self.name}: 200 reply is not a campaign payload: {exc}") from exc
        return payload

    def probe(self, timeout: float) -> bool:
        """True when ``GET /healthz`` answers ok within ``timeout``."""
        try:
            status, raw = self._request("GET", "/healthz", None, timeout)
            return status == 200 and \
                json.loads(raw.decode("utf-8")).get("status") == "ok"
        except (OSError, ValueError, http.client.HTTPException):
            return False


def parse_workers(spec: str) -> list[str]:
    """Split a ``host:port,host:port`` CLI value into address strings."""
    addresses = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"worker address {part!r} is not host:port")
        addresses.append(f"{host}:{int(port)}")
    if not addresses:
        raise ValueError(f"no worker addresses in {spec!r}")
    return addresses


def _as_clients(workers: Sequence[str | WorkerClient]) -> list[WorkerClient]:
    clients = []
    for worker in workers:
        if isinstance(worker, WorkerClient):
            clients.append(worker)
        else:
            host, _, port = str(worker).rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"worker address {worker!r} is not host:port")
            clients.append(WorkerClient(host, int(port)))
    return clients


# ----------------------------------------------------------------------
# work queue with delayed requeue (backoff)
# ----------------------------------------------------------------------
@dataclass(order=True)
class _Task:
    not_before: float
    seq: int
    index: int = field(compare=False)
    instance: ScenarioInstance = field(compare=False)
    key: str = field(compare=False)
    attempts: int = field(compare=False, default=0)
    last_error: str = field(compare=False, default="")


class _WorkQueue:
    """Thread-safe min-heap of tasks ordered by their earliest start time."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list[_Task] = []
        self._closed = False

    def put(self, task: _Task, *, delay: float = 0.0) -> None:
        with self._cond:
            task.not_before = time.monotonic() + delay
            heapq.heappush(self._heap, task)
            self._cond.notify_all()

    def get(self) -> _Task | None:
        """Block until a task is ready (its backoff delay elapsed) or the
        queue is closed; None means shut down."""
        with self._cond:
            while True:
                if self._closed:
                    return None
                if self._heap:
                    wait = self._heap[0].not_before - time.monotonic()
                    if wait <= 0:
                        return heapq.heappop(self._heap)
                    self._cond.wait(wait)
                else:
                    self._cond.wait()

    def pop_nowait(self) -> _Task | None:
        """Immediately take any queued task, ignoring backoff delays (the
        in-process degradation path has no other executor to wait for)."""
        with self._cond:
            if self._heap:
                return heapq.heappop(self._heap)
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ----------------------------------------------------------------------
# aggregate result
# ----------------------------------------------------------------------
@dataclass
class DistributedCampaignResult(CampaignResult):
    """A :class:`CampaignResult` plus the coordinator's fault-tolerance
    telemetry."""

    mode: str = "distributed"       # "distributed" | "in-process"
    #: True when every worker was lost and the remainder ran in-process.
    degraded: bool = False
    retries: int = 0                # requeues (attempts beyond the first)
    evictions: int = 0
    readmissions: int = 0
    duplicate_completions: int = 0
    worker_stats: list[dict] = field(default_factory=list)

    def summary(self) -> str:
        base = super().summary()
        workers = len(self.worker_stats)
        tail = (f" [distributed: {workers} workers, {self.retries} retries, "
                f"{self.evictions} evictions, {self.readmissions} readmissions"
                f"{', DEGRADED to in-process' if self.degraded else ''}]")
        return base + tail


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class _Coordinator:
    def __init__(self, *, workers: list[WorkerClient], cache: ResultCache,
                 policy: RetryPolicy, use_cache: bool, refresh: bool,
                 share_cache: bool, in_process_fallback: bool,
                 max_failures: int | None, total: int,
                 emit: Callable[[str], None]) -> None:
        self.workers = workers
        self.cache = cache
        self.policy = policy
        self.use_cache = use_cache
        self.refresh = refresh
        self.in_process_fallback = in_process_fallback
        self.max_failures = max_failures
        self.total = total
        self.emit = emit
        self.worker_cache_dir = (str(Path(cache.root).resolve())
                                 if share_cache and use_cache else None)

        self.queue = _WorkQueue()
        self.results: list[InstanceResult | None] = [None] * total
        self.shutdown = threading.Event()
        self._cond = threading.Condition()
        self._done: set[int] = set()
        self._remaining = 0
        self._failures = 0
        # repro: allow[REP003] -- fixed-seed private stream for retry
        # backoff jitter; shapes timing only, never a recorded result
        self._rng = random.Random(0xC0FFEE)
        # Telemetry
        self.retries = 0
        self.duplicate_completions = 0
        self.degraded = False
        self.aborted = False

    # -- bookkeeping ----------------------------------------------------
    def add_pending(self, tasks: Sequence[_Task]) -> None:
        self._remaining = len(tasks)
        for task in tasks:
            self.queue.put(task)

    def is_done(self, index: int) -> bool:
        with self._cond:
            return index in self._done

    def _progress(self, task: _Task, text: str) -> None:
        self.emit(f"[{task.index + 1}/{self.total}] "
                  f"{task.instance.describe()}: {text}")

    def complete_success(self, task: _Task, record: dict,
                         elapsed: float, worker: WorkerClient | None) -> bool:
        """Record one finished instance; False for a duplicate completion.

        Duplicates are expected under at-least-once execution (a requeued
        task can finish twice); the content-addressed cache key makes the
        second write a no-op rewrite of identical content, and the
        coordinator keeps only the first result.
        """
        with self._cond:
            if task.index in self._done:
                self.duplicate_completions += 1
                return False
            self._done.add(task.index)
            self._remaining -= 1
            self.results[task.index] = InstanceResult(
                instance=task.instance, key=task.key, record=record,
                cached=False, elapsed_seconds=elapsed,
                attempts=task.attempts,
                worker=worker.name if worker is not None else None)
            self._cond.notify_all()
        if self.use_cache:
            self.cache.put(task.key, record)
        where = worker.name if worker is not None else "in-process"
        attempt = f", attempt {task.attempts}" if task.attempts > 1 else ""
        self._progress(task, f"ran in {elapsed:.2f}s on {where}{attempt}")
        return True

    def complete_failure(self, task: _Task, failure: dict) -> bool:
        error = f"{failure['error_type']}: {failure['message']}"
        with self._cond:
            if task.index in self._done:
                self.duplicate_completions += 1
                return False
            self._done.add(task.index)
            self._remaining -= 1
            self._failures += 1
            self.results[task.index] = InstanceResult(
                instance=task.instance, key=task.key, record=None,
                cached=False, elapsed_seconds=0.0, error=error,
                failure=failure, attempts=task.attempts)
            if self.max_failures is not None \
                    and self._failures > self.max_failures:
                self.aborted = True
            self._cond.notify_all()
        self._progress(task, f"FAILED after {task.attempts} attempt(s): "
                             f"{error}")
        return True

    def mark_cached(self, index: int, instance: ScenarioInstance, key: str,
                    record: dict) -> None:
        self.results[index] = InstanceResult(
            instance=instance, key=key, record=record, cached=True,
            elapsed_seconds=0.0)
        self.emit(f"[{index + 1}/{self.total}] {instance.describe()}: cached")

    # -- retry / eviction policy ---------------------------------------
    def _note_failure(self, task: _Task, worker: WorkerClient,
                      exc: WorkerError) -> None:
        worker.failures += 1
        # Requeue (or permanently fail) *before* any eviction bookkeeping,
        # so the all-workers-lost check never sees a task in limbo.
        if not exc.retryable:
            self.complete_failure(task, failure_record(
                f"WorkerError.{exc.kind}", str(exc), attempts=task.attempts))
        elif task.attempts >= self.policy.max_attempts:
            self.complete_failure(task, failure_record(
                f"WorkerError.{exc.kind}",
                f"retries exhausted ({task.attempts} attempts); last error: "
                f"{exc}", attempts=task.attempts))
        else:
            task.last_error = str(exc)
            delay = self.policy.delay_for(task.attempts, self._rng)
            with self._cond:
                self.retries += 1
            self._progress(task, f"attempt {task.attempts} failed "
                                 f"({exc.kind}); requeued with "
                                 f"{delay * 1e3:.0f}ms backoff")
            self.queue.put(task, delay=delay)
        # Worker health accounting.
        if exc.kind == "connect":
            self._evict(worker, reason="connection refused")
        elif exc.kind in ("timeout", "transport", "protocol", "http"):
            worker.consecutive_failures += 1
            if worker.consecutive_failures >= self.policy.evict_after:
                self._evict(worker,
                            reason=f"{worker.consecutive_failures} "
                                   "consecutive failures")

    def _evict(self, worker: WorkerClient, *, reason: str) -> None:
        if not worker.healthy:
            return
        worker.healthy = False
        worker.evictions += 1
        self.emit(f"worker {worker.name} evicted ({reason}); probing /healthz "
                  f"every {self.policy.probe_interval:.2f}s")
        with self._cond:
            self._cond.notify_all()   # wake the monitor: maybe all are gone

    def _readmit(self, worker: WorkerClient) -> None:
        worker.healthy = True
        worker.consecutive_failures = 0
        worker.readmissions += 1
        self.emit(f"worker {worker.name} healthy again; readmitted")
        with self._cond:
            self._cond.notify_all()

    # -- worker thread ---------------------------------------------------
    def worker_loop(self, worker: WorkerClient) -> None:
        while not self.shutdown.is_set():
            if not worker.healthy:
                if not self._probe_until_healthy(worker):
                    return          # shut down while evicted
                continue
            task = self.queue.get()
            if task is None:
                return              # queue closed: sweep finished/aborted
            if self.is_done(task.index):
                continue            # stale requeue of a completed instance
            task.attempts += 1
            try:
                payload = worker.run_instance(
                    task.instance, timeout=self.policy.request_timeout,
                    cache_dir=self.worker_cache_dir,
                    use_cache=self.use_cache,
                    refresh=self.refresh and task.attempts == 1)
            except WorkerError as exc:
                self._note_failure(task, worker, exc)
                continue
            worker.consecutive_failures = 0
            try:
                record, elapsed = self._record_from_payload(task, payload)
            except WorkerError as exc:
                self._note_failure(task, worker, exc)
                continue
            worker.successes += 1
            self.complete_success(task, record, elapsed, worker)

    def _probe_until_healthy(self, worker: WorkerClient) -> bool:
        while not self.shutdown.wait(self.policy.probe_interval):
            if worker.probe(self.policy.probe_timeout):
                self._readmit(worker)
                return True
        return False

    def _record_from_payload(self, task: _Task,
                             payload: dict) -> tuple[dict, float]:
        """Rebuild the canonical cache record from a worker's 200 payload.

        The worker computed the same content-addressed key from the same
        code; a mismatch means version skew between coordinator and worker,
        which no retry can fix.
        """
        remote_key = payload.get("key")
        if remote_key != task.key:
            raise WorkerError(
                "protocol",
                f"worker returned key {str(remote_key)[:12]!r} for instance "
                f"keyed {task.key[:12]!r} -- coordinator/worker version skew",
                retryable=False)
        spec = get_scenario(task.instance.scenario)
        elapsed = float(payload.get("elapsed_seconds", 0.0))
        record = make_record(key=task.key, scenario=task.instance.scenario,
                             params=task.instance.params,
                             result=payload["result"],
                             elapsed_seconds=elapsed,
                             cache_version=spec.cache_version)
        return record, elapsed

    # -- monitor / degradation ------------------------------------------
    def run(self) -> None:
        """Drive the sweep to completion (the caller already queued tasks)."""
        threads = [threading.Thread(target=self.worker_loop, args=(w,),
                                    name=f"repro-worker-{w.name}", daemon=True)
                   for w in self.workers]
        for thread in threads:
            thread.start()
        try:
            while True:
                with self._cond:
                    if self._remaining == 0 or self.aborted:
                        break
                    all_lost = all(not w.healthy for w in self.workers)
                    if not all_lost:
                        self._cond.wait(0.1)
                        continue
                # Every worker is evicted with work left: degrade to
                # in-process execution (workers can still be readmitted
                # concurrently and help drain the queue), or -- with the
                # fallback disabled -- fail the remainder instead of
                # spinning forever on an empty fleet.
                if self.in_process_fallback:
                    self.degraded = True
                    self.emit("all workers lost; degrading to in-process "
                              "execution")
                    self.drain_in_process()
                else:
                    self.emit("all workers lost; failing remaining instances "
                              "(in-process fallback disabled)")
                    self.fail_pending()
        finally:
            self.shutdown.set()
            self.queue.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def drain_in_process(self) -> None:
        """Execute queued tasks locally until the sweep completes/aborts."""
        while True:
            with self._cond:
                if self._remaining == 0 or self.aborted:
                    return
            task = self.queue.pop_nowait()
            if task is None:
                # Remaining tasks are leased to a (readmitted) worker.
                with self._cond:
                    if self._remaining and not self.aborted:
                        self._cond.wait(0.1)
                continue
            if self.is_done(task.index):
                continue
            task.attempts += 1
            try:
                result, elapsed = _execute(task.instance.scenario,
                                           dict(task.instance.params))
                spec = get_scenario(task.instance.scenario)
                record = make_record(key=task.key,
                                     scenario=task.instance.scenario,
                                     params=task.instance.params,
                                     result=result, elapsed_seconds=elapsed,
                                     cache_version=spec.cache_version)
            except Exception as exc:  # noqa: BLE001 - per-instance failure
                self.complete_failure(
                    task, failure_from_exception(exc, attempts=task.attempts))
            else:
                self.complete_success(task, record, elapsed, None)

    def fail_pending(self) -> None:
        """Permanently fail queued tasks (all workers lost, no fallback)."""
        while True:
            with self._cond:
                if self._remaining == 0 or self.aborted:
                    return
            task = self.queue.pop_nowait()
            if task is None:
                # A readmitted worker may still hold (and finish) a lease.
                with self._cond:
                    if self._remaining and not self.aborted:
                        self._cond.wait(0.1)
                continue
            if self.is_done(task.index):
                continue
            self.complete_failure(task, failure_record(
                "AllWorkersLost",
                f"every worker was evicted with work pending; last error: "
                f"{task.last_error or 'n/a'}", attempts=task.attempts))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_distributed_campaign(
        instances: Sequence[ScenarioInstance], *,
        workers: Sequence[str | WorkerClient],
        name: str = "campaign",
        cache: ResultCache | None = None,
        use_cache: bool = True,
        refresh: bool = False,
        policy: RetryPolicy | None = None,
        max_failures: int | None = None,
        share_cache: bool = True,
        in_process_fallback: bool = True,
        progress: Callable[[str], None] | None = None,
) -> DistributedCampaignResult:
    """Execute ``instances`` across HTTP workers with fault tolerance.

    ``workers`` are ``host:port`` strings (or prebuilt
    :class:`WorkerClient` objects); an empty list runs everything
    in-process, which is also the degradation path when every worker is
    lost mid-sweep.  ``share_cache`` forwards the coordinator's cache
    directory in each request so localhost workers write the very records
    the coordinator reads (remote fleets should pass ``False``).  All other
    parameters mirror :func:`repro.campaign.runner.run_campaign`; the
    result additionally carries retry/eviction/degradation telemetry.
    """
    policy = policy if policy is not None else RetryPolicy()
    cache = cache if cache is not None else ResultCache()
    emit = progress or (lambda line: None)
    clients = _as_clients(workers)
    started = time.perf_counter()
    total = len(instances)

    coordinator = _Coordinator(
        workers=clients, cache=cache, policy=policy, use_cache=use_cache,
        refresh=refresh, share_cache=share_cache,
        in_process_fallback=in_process_fallback, max_failures=max_failures,
        total=total, emit=emit)

    # Peel cache hits first (this is what makes re-launched coordinators
    # resume instead of re-solving), then queue the misses.
    seq = itertools.count()
    tasks: list[_Task] = []
    for index, instance in enumerate(instances):
        spec = get_scenario(instance.scenario)
        try:
            key = instance_key(instance.scenario, instance.params,
                               cache_version=spec.cache_version)
        except TypeError as exc:
            coordinator.results[index] = InstanceResult(
                instance=instance, key="", record=None, cached=False,
                elapsed_seconds=0.0, error=f"TypeError: {exc}",
                failure=failure_from_exception(exc))
            emit(f"[{index + 1}/{total}] {instance.describe()}: "
                 f"ERROR TypeError: {exc}")
            continue
        record = cache.get(key) if (use_cache and not refresh) else None
        if record is not None:
            coordinator.mark_cached(index, instance, key, record)
        else:
            tasks.append(_Task(not_before=0.0, seq=next(seq), index=index,
                               instance=instance, key=key))

    if tasks:
        coordinator.add_pending(tasks)
        if clients:
            coordinator.run()
        else:
            coordinator.drain_in_process()

    final = [r for r in coordinator.results if r is not None]
    return DistributedCampaignResult(
        name=name, results=final, jobs=max(1, len(clients)),
        wall_seconds=time.perf_counter() - started,
        aborted=coordinator.aborted, skipped=total - len(final),
        mode="distributed" if clients else "in-process",
        degraded=coordinator.degraded,
        retries=coordinator.retries,
        evictions=sum(w.evictions for w in clients),
        readmissions=sum(w.readmissions for w in clients),
        duplicate_completions=coordinator.duplicate_completions,
        worker_stats=[{
            "worker": w.name, "healthy": w.healthy, "requests": w.requests,
            "successes": w.successes, "failures": w.failures,
            "evictions": w.evictions, "readmissions": w.readmissions,
        } for w in clients])


# ----------------------------------------------------------------------
# local worker processes (--spawn, tests, benchmarks)
# ----------------------------------------------------------------------
_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")


@dataclass
class SpawnedWorker:
    """One locally forked ``python -m repro serve`` process."""

    process: subprocess.Popen
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def kill(self) -> None:
        """SIGKILL -- the chaos tests' worker-loss injection."""
        try:
            self.process.send_signal(signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self.process.terminate()
            self.process.wait(timeout=timeout)
        except (ProcessLookupError, OSError):
            pass
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout)


def spawn_local_workers(count: int, *, startup_timeout: float = 30.0,
                        store_dir: str | os.PathLike | None = None,
                        extra_args: Sequence[str] = ()) -> list[SpawnedWorker]:
    """Fork ``count`` local serve workers on ephemeral ports.

    Each worker's bound port is parsed from its startup banner; the call
    returns only once every worker answered ``/healthz``.  On any startup
    failure the already-spawned workers are stopped before the error
    propagates.

    ``store_dir`` points every worker at one shared persistent result
    store, so a solve computed by any worker warms the whole pool (and the
    coordinator's own cache root, when they are the same directory).  The
    default is ``--no-store``: short-lived test/benchmark workers must not
    grow a ``.repro-cache/`` in whatever directory they inherit.
    """
    if store_dir is not None:
        store_args: tuple[str, ...] = ("--store-dir", str(store_dir))
    else:
        store_args = ("--no-store",)
    workers: list[SpawnedWorker] = []
    try:
        for _ in range(count):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 *store_args, *extra_args],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=child_env())
            port = _read_banner_port(process, startup_timeout)
            workers.append(SpawnedWorker(process, "127.0.0.1", port))
        deadline = time.monotonic() + startup_timeout
        for worker in workers:
            client = WorkerClient(worker.host, worker.port)
            while not client.probe(1.0):
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {worker.address} never became healthy")
                time.sleep(0.05)
    except Exception:
        stop_workers(workers)
        raise
    return workers


def _read_banner_port(process: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    captured = []
    while time.monotonic() < deadline:
        if process.poll() is not None:
            break
        ready, _, _ = select.select([process.stdout], [], [], 0.25)
        if not ready:
            continue
        line = process.stdout.readline()
        if not line:
            break
        captured.append(line)
        match = _BANNER.search(line)
        if match:
            return int(match.group(2))
    process.kill()
    raise RuntimeError("serve worker never printed its listening banner; "
                       "output so far:\n" + "".join(captured))


def stop_workers(workers: Sequence[SpawnedWorker]) -> None:
    """Terminate every spawned worker (idempotent, kill-safe)."""
    for worker in workers:
        worker.stop()

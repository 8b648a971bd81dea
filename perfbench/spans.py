"""In-memory spans around the calls into each ``repro`` layer.

:func:`instrument` wraps public entry points of the layers from outside --
``src/repro`` is not edited -- and :func:`layer_metrics` turns the recorded
spans into the per-layer metrics.  A span is ``(request id, span id, parent
span id, name, start, end, self seconds)``; self time is the span minus the
time its child spans cover.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Span names, after the ``src/repro`` module that owns the wrapped call.
SERVICE = "api.service"
REQUEST_PARSE = "api.types.request_parse"
RESPONSE_BUILD = "api.types.response_build"
FROM_WIRE = "core.columnar.from_wire"
CONTENT_KEYS = "core.columnar.content_keys"
MATERIALISE = "core.columnar.problem"
ENGINE = "api.engine"
STORE_GET = "store.get"
STORE_PUT = "store.put"
KERNEL = "solvers.kernel"
SCHEDULE_BUILD = "solvers.schedule_build"
ENCODE = "api.server.encode"
REQUEST = "request"

#: Solvers the workloads dispatch to; anything else counts as ``other``.
KNOWN_SOLVERS = ("bicrit-closed-form", "tricrit-chain-exact",
                 "tricrit-fork-poly", "tricrit-pruned", "tricrit-pruned-gap")


class Tracer:
    """The span stack of the replay's one client.

    Wrappers record only inside a request opened with ``traced=True``, so
    traced and untraced requests interleave on one engine and the tracing
    overhead is measured on neighbouring requests.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.pruned_max_gap = 0.0
        self._stack: list[list] = []
        self._request = 0
        self._ids = itertools.count(1)

    def enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((self._request, frame[3], frame[4], frame[0],
                           frame[1], end, duration - frame[2]))

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    @contextmanager
    def request(self, traced: bool):
        """One request; if ``traced``, a root span whose children share its
        request id."""
        self.active = traced
        self._request += 1
        try:
            with self.span(REQUEST):
                yield
        finally:
            self.active = False

    def wrap(self, name: str, fn: Callable, *, reentrant: bool = True) -> Callable:
        """``fn`` timed as span ``name`` in traced requests.  With
        ``reentrant=False`` a call made inside a span of the same name is not
        recorded separately (per-row ``to_dict`` inside a batch ``to_dict``)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (
                    not reentrant and tracer._stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per span name: self seconds, total seconds and calls."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for *_, name, start, end, own in self.spans:
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header and every span, one JSON array per line."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(["request", "span", "parent", "name",
                                 "start", "end", "self"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points with ``tracer``; returns the undo."""
    from repro.api import engine as engine_mod
    from repro.api.engine import Engine
    from repro.api.service import Service
    from repro.api.types import (SolveBatchRequest, SolveBatchResponse,
                                 SolveRequest, SolveResponse)
    from repro.core.columnar import ProblemBatch
    from repro.solvers.batch import LazyScheduleResult
    from repro.store import ResultStore

    undo: list[Callable[[], None]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, original))

    def timed(name: str, fn: Callable, after: Callable[[Any], None] | None,
              **kw: Any) -> Callable:
        """``fn`` as span ``name``; ``after`` sees each traced result."""
        wrapped = tracer.wrap(name, fn, **kw)
        if after is None:
            return wrapped

        @functools.wraps(fn)
        def observed(*args: Any, **kwargs: Any) -> Any:
            out = wrapped(*args, **kwargs)
            if tracer.active:
                after(out)
            return out
        return observed

    def method(owner: type, attr: str, name: str,
               after: Callable[[Any], None] | None = None, **kw: Any) -> None:
        patch(owner, attr, timed(name, owner.__dict__[attr], after, **kw))

    def classmethod_(owner: type, attr: str, name: str,
                     after: Callable[[Any], None] | None = None) -> None:
        fn = owner.__dict__[attr].__func__
        patch(owner, attr, classmethod(timed(name, fn, after)))

    method(Service, "handle", SERVICE)
    classmethod_(SolveRequest, "from_dict", REQUEST_PARSE)
    classmethod_(SolveBatchRequest, "from_dict", REQUEST_PARSE)
    method(SolveResponse, "to_dict", RESPONSE_BUILD, reentrant=False)
    method(SolveBatchResponse, "to_dict", RESPONSE_BUILD, reentrant=False)

    def count_fallback(batch: Any) -> None:
        tracer.counts["fallback_rows"] += int(batch.columns["fallback"].sum())
    classmethod_(ProblemBatch, "from_wire", FROM_WIRE, after=count_fallback)
    method(ProblemBatch, "content_keys", CONTENT_KEYS)
    method(ProblemBatch, "problem", MATERIALISE)

    method(Engine, "solve", ENGINE)
    method(Engine, "solve_batch", ENGINE)

    def count_hit(payload: Any) -> None:
        tracer.counts["store.get_hits"] += payload is not None
    method(ResultStore, "get", STORE_GET, after=count_hit)
    method(ResultStore, "put", STORE_PUT)

    def pruned_stats(result: Any) -> None:
        meta = result.metadata
        if "nodes" in meta:
            tracer.counts["pruned.nodes"] += int(meta["nodes"])
            tracer.counts["pruned.subsets_evaluated"] += int(
                meta.get("subsets_evaluated", 0))
            tracer.pruned_max_gap = max(tracer.pruned_max_gap,
                                        float(meta.get("optimality_gap", 0.0)))
    # The kernels as ``repro.api.engine`` binds them (module globals looked
    # up at call time).
    patch(engine_mod, "_kernel_solve",
          timed(KERNEL, engine_mod._kernel_solve, pruned_stats))
    patch(engine_mod, "_kernel_solve_batch",
          timed(KERNEL, engine_mod._kernel_solve_batch, None))

    # Lazy schedules: time only the accesses that actually build one.
    lazy = LazyScheduleResult.__dict__["schedule"]
    build = tracer.wrap(SCHEDULE_BUILD, lazy.fget)

    def schedule(self: Any) -> Any:
        if self._schedule is None and self._schedule_builder is not None:
            return build(self)
        return lazy.fget(self)
    patch(LazyScheduleResult, "schedule", property(schedule, lazy.fset))

    def restore() -> None:
        while undo:
            undo.pop()()
    return restore


def count_solvers(counts: Counter[str], response: Any) -> None:
    """Count the dispatched (not cached) solver of every answer."""
    rows = response.get("results", [response]) if isinstance(response, dict) else []
    for row in rows:
        if isinstance(row, dict) and not row.get("cached", True):
            name = row.get("dispatch", {}).get("solver")
            counts[name if name in KNOWN_SOLVERS else "other"] += 1


def layer_metrics(tracer: Tracer, *, instances: int) -> dict[str, float]:
    """Per-layer figures from the spans: ``*_ms`` are self milliseconds per
    instance, ``*_per_op`` / ``*_per_instance`` are counts per instance."""
    self_s, total_s, calls = tracer.totals()
    per = 1e3 / instances
    request_s = total_s[REQUEST]
    return {
        "service.self_ms": self_s[SERVICE] * per,
        "types.request_parse_ms": self_s[REQUEST_PARSE] * per,
        "types.response_build_ms": total_s[RESPONSE_BUILD] * per,
        "columnar.from_wire_ms": self_s[FROM_WIRE] * per,
        "columnar.content_keys_ms": self_s[CONTENT_KEYS] * per,
        "columnar.materialise_ms": self_s[MATERIALISE] * per,
        "columnar.materialised_per_instance": calls[MATERIALISE] / instances,
        "columnar.fallback_rows": float(tracer.counts["fallback_rows"]),
        "engine.self_ms": self_s[ENGINE] * per,
        "store.get_calls_per_op": calls[STORE_GET] / instances,
        "store.get_ms": self_s[STORE_GET] * per,
        "store.hit_ratio": (tracer.counts["store.get_hits"] / calls[STORE_GET]
                            if calls[STORE_GET] else 0.0),
        "store.put_calls_per_op": calls[STORE_PUT] / instances,
        "store.put_ms": self_s[STORE_PUT] * per,
        "solvers.kernel_ms": total_s[KERNEL] * per,
        "solvers.kernel_share": total_s[KERNEL] / request_s if request_s else 0.0,
        "solvers.schedule_build_ms": self_s[SCHEDULE_BUILD] * per,
        "solvers.schedules_materialised_per_instance":
            calls[SCHEDULE_BUILD] / instances,
        "pruned.nodes": float(tracer.counts["pruned.nodes"]),
        "pruned.subsets_evaluated":
            float(tracer.counts["pruned.subsets_evaluated"]),
        "pruned.max_gap": tracer.pruned_max_gap,
        "server.encode_ms": self_s[ENCODE] * per,
        "trace.unattributed_ms": self_s[REQUEST] * per,
        "trace.request_ms": request_s * per,
    }


def self_time_table(tracer: Tracer) -> list[tuple[str, float, int]]:
    """``(span name, self seconds, calls)``, largest self time first."""
    self_s, _, calls = tracer.totals()
    return sorted(((n, s, calls[n]) for n, s in self_s.items()),
                  key=lambda row: -row[1])

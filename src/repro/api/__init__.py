"""``repro.api``: the versioned v1 facade -- the library's single front door.

Every consumer (the CLI, the campaign runner, the experiment drivers, the
HTTP service, external clients) goes through this package instead of
reaching into ``repro.solvers`` / ``repro.simulation`` / ``repro.campaign``
with four different call conventions:

* :mod:`repro.api.types` -- frozen, JSON-round-trippable request/response
  dataclasses built on the problem schema of :mod:`repro.core.problem_io`;
* :mod:`repro.api.errors` -- stable machine-readable error codes
  (``inadmissible_solver``, ``no_admissible_solver``, ``invalid_problem``,
  ``size_limit``, ...) and the :class:`ApiError` carrier;
* :mod:`repro.api.engine` -- the long-lived :class:`Engine` owning the
  shared hot-path state: the LRU result cache over the persistent store,
  request coalescing, and the batched submit path that routes homogeneous
  groups through the vectorized kernels;
* :mod:`repro.api.service` / :mod:`repro.api.server` -- the HTTP surface
  behind ``python -m repro serve``.

In process, the module-level helpers below operate on a shared default
engine, so independent call sites (an ablation grid here, a Pareto sweep
there) transparently share caches::

    import repro.api as api

    result, cached = api.submit(problem)             # SolveResult, hit flag
    pairs = api.submit_batch(problems)               # vectorized + cached
    response = api.solve(api.SolveRequest(problem))  # wire-typed response
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..core.problems import SolveResult

from .engine import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_TASKS,
    Engine,
    problem_content_key,
)
from .errors import (
    ERROR_CODES,
    HTTP_STATUS,
    ApiError,
    ErrorResponse,
    error_from_exception,
)
from .service import ROUTES, Service
from .types import (
    API_VERSION,
    CampaignRequest,
    CampaignResponse,
    SimulateRequest,
    SimulateResponse,
    SolveBatchRequest,
    SolveBatchResponse,
    SolveRequest,
    SolveResponse,
)

__all__ = [
    "API_VERSION",
    "Engine",
    "Service",
    "ApiError",
    "ErrorResponse",
    "error_from_exception",
    "ERROR_CODES",
    "HTTP_STATUS",
    "ROUTES",
    "SolveRequest",
    "SolveBatchRequest",
    "SimulateRequest",
    "CampaignRequest",
    "SolveResponse",
    "SolveBatchResponse",
    "SimulateResponse",
    "CampaignResponse",
    "problem_content_key",
    "default_engine",
    "reset_default_engine",
    "submit",
    "submit_batch",
    "solve",
    "run_scenario",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_TASKS",
]

# ----------------------------------------------------------------------
# the shared in-process engine
# ----------------------------------------------------------------------
_default_engine: Engine | None = None  # guarded-by: _default_lock
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide shared :class:`Engine` (created on first use).

    The experiment drivers and the convenience helpers all route through
    it, so repeated solves of the same instance anywhere in the process hit
    one result cache.  It runs *uncapped* (``max_tasks=None``,
    ``max_batch=None``): request-size admission is a service concern, and a
    library caller solving a large instance in process must not be turned
    away.  Servers construct their own ``Engine`` (with the service-default
    caps) instead.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine(max_tasks=None, max_batch=None)
        return _default_engine


def reset_default_engine() -> None:
    """Drop the shared engine (tests; the next call builds a fresh one)."""
    global _default_engine
    with _default_lock:
        _default_engine = None


# ----------------------------------------------------------------------
# convenience front doors on the shared engine
# ----------------------------------------------------------------------
def submit(problem: Any, solver: str = "auto",
           **kwargs: Any) -> "tuple[SolveResult, bool]":
    """``default_engine().submit(...)``: solve one instance, with caching."""
    return default_engine().submit(problem, solver, **kwargs)


def submit_batch(problems: Sequence[Any], solver: str = "auto",
                 **kwargs: Any) -> "list[tuple[SolveResult, bool]]":
    """``default_engine().submit_batch(...)``: vectorized cached batch solve."""
    return default_engine().submit_batch(problems, solver, **kwargs)


def solve(request: SolveRequest) -> SolveResponse:
    """``default_engine().solve(...)``: wire-typed single solve."""
    return default_engine().solve(request)


def run_scenario(scenario: str, params: Mapping[str, Any]) -> Any:
    """Execute one registered campaign scenario by name.

    The single scenario-execution front door: the campaign runner's workers
    and the ``/v1/campaign`` endpoint both land here, so scenario dispatch
    semantics (registry lookup, keyword-only invocation) live in one place.
    """
    from ..campaign.registry import get_scenario

    return get_scenario(scenario).runner(**dict(params))

"""Frozen, JSON-round-trippable request/response types of the v1 API.

Every type maps to and from a plain-``dict`` wire form (``to_dict`` /
``from_dict``) built on the problem JSON schema of
:mod:`repro.core.problem_io`: a request's ``problem`` field is exactly the
payload :func:`repro.core.problem_io.problem_to_dict` writes (a constructed
:class:`~repro.core.problems.BiCritProblem` object is also accepted in
process, so internal consumers skip the serialisation round trip).
``from_dict`` validates shape and field types and raises
:class:`~repro.api.errors.ApiError` with the ``invalid_request`` code on any
mismatch -- by the time a request object exists, its fields are trustworthy.

The wire contract is versioned: :data:`API_VERSION` names the prefix every
HTTP route carries (``/v1/solve``), and each response embeds it so clients
can assert what they are talking to.  Fields are only ever added, never
renamed, within a version.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from .errors import INVALID_REQUEST, ApiError, ErrorResponse

__all__ = [
    "API_VERSION",
    "SolveRequest",
    "SolveBatchRequest",
    "SimulateRequest",
    "CampaignRequest",
    "SolveResponse",
    "SolveBatchResponse",
    "SimulateResponse",
    "CampaignResponse",
    "ErrorResponse",
]

#: Version prefix of the wire contract (HTTP routes are ``/v1/...``).
API_VERSION = "v1"

#: Solver-evaluation engines a request may name.
_ENGINES = ("batch", "scalar")


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------
def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ApiError(INVALID_REQUEST,
                       f"{what} must be a JSON object, got {type(data).__name__}")
    return data

def _check_keys(data: Mapping[str, Any], allowed: Sequence[str],
                required: Sequence[str], what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ApiError(INVALID_REQUEST,
                       f"unknown field(s) {sorted(unknown)} in {what}; "
                       f"allowed: {sorted(allowed)}")
    missing = set(required) - set(data)
    if missing:
        raise ApiError(INVALID_REQUEST,
                       f"missing required field(s) {sorted(missing)} in {what}")

def _str_field(data: Mapping[str, Any], key: str, default: str,
               what: str) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ApiError(INVALID_REQUEST,
                       f"{what}.{key} must be a string, got {type(value).__name__}")
    return value

def _bool_field(data: Mapping[str, Any], key: str, default: bool,
                what: str) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ApiError(INVALID_REQUEST,
                       f"{what}.{key} must be a boolean, got {type(value).__name__}")
    return value

def _int_field(data: Mapping[str, Any], key: str, default: int, what: str, *,
               minimum: int | None = None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(INVALID_REQUEST,
                       f"{what}.{key} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ApiError(INVALID_REQUEST,
                       f"{what}.{key} must be >= {minimum}, got {value}")
    return value

def _dict_field(data: Mapping[str, Any], key: str, what: str) -> dict[str, Any]:
    value = data.get(key, {})
    return dict(_require_mapping(value, f"{what}.{key}"))

def _engine_field(data: Mapping[str, Any], what: str) -> str:
    engine = _str_field(data, "engine", "batch", what)
    if engine not in _ENGINES:
        raise ApiError(INVALID_REQUEST,
                       f"{what}.engine must be one of {list(_ENGINES)}, "
                       f"got {engine!r}")
    return engine

def _problem_wire_form(problem: Any) -> dict[str, Any]:
    """The ``problem`` field as its JSON schema dict (serialising objects)."""
    if isinstance(problem, Mapping):
        return dict(problem)
    from ..core.problem_io import problem_to_dict

    return problem_to_dict(problem)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveRequest:
    """Solve one BI-CRIT / TRI-CRIT instance.

    ``problem`` is the :mod:`repro.core.problem_io` JSON dict (or, in
    process, an already-constructed problem object); ``solver`` is a
    registry name or ``"auto"``; ``options`` are solver keyword overrides
    (named solvers only -- the dispatcher rejects solver-specific knobs).
    """

    problem: Any
    solver: str = "auto"
    options: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"problem": _problem_wire_form(self.problem),
                "solver": self.solver, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Any) -> "SolveRequest":
        data = _require_mapping(data, "solve request")
        _check_keys(data, ("problem", "solver", "options"), ("problem",),
                    "solve request")
        return cls(problem=dict(_require_mapping(data["problem"],
                                                 "solve request.problem")),
                   solver=_str_field(data, "solver", "auto", "solve request"),
                   options=_dict_field(data, "options", "solve request"))


@dataclass(frozen=True)
class SolveBatchRequest:
    """Solve many instances in one request.

    Chain, fork and TRI-CRIT chain rows are evaluated through the
    vectorized batch kernel automatically; the response preserves input
    order.

    ``from_dict`` additionally parses the wire payloads straight into a
    columnar :class:`~repro.core.columnar.ProblemBatch` (``batch``), so the
    engine's zero-copy path starts from struct-of-arrays without a second
    pass over the JSON.  The field is in-process only: it never appears on
    the wire and requests constructed directly (e.g. with ``Problem``
    objects) simply leave it ``None``.
    """

    problems: list[Any]
    solver: str = "auto"
    options: dict[str, Any] = field(default_factory=dict)
    batch: Any = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {"problems": [_problem_wire_form(p) for p in self.problems],
                "solver": self.solver, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Any) -> "SolveBatchRequest":
        data = _require_mapping(data, "solve-batch request")
        _check_keys(data, ("problems", "solver", "options"), ("problems",),
                    "solve-batch request")
        raw = data["problems"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ApiError(INVALID_REQUEST,
                           "solve-batch request.problems must be a JSON array")
        problems = [p if type(p) is dict else
                    dict(_require_mapping(p, f"solve-batch request.problems[{i}]"))
                    for i, p in enumerate(raw)]
        batch = None
        if problems:
            from ..core.columnar import ProblemBatch

            # Never raises: rows the strict parser cannot certify are
            # fallback rows, which the engine parses (and rejects) per row.
            batch = ProblemBatch.from_wire(problems)
        return cls(problems=problems,
                   solver=_str_field(data, "solver", "auto", "solve-batch request"),
                   options=_dict_field(data, "options", "solve-batch request"),
                   batch=batch)


@dataclass(frozen=True)
class SimulateRequest:
    """Solve an instance, then Monte-Carlo simulate the resulting schedule.

    ``trials`` fault-injected executions of the solved schedule are
    aggregated into reliability / energy / makespan statistics; ``engine``
    picks the vectorized batch kernel (default) or the scalar reference
    walk of :mod:`repro.simulation.engine`.
    """

    problem: Any
    solver: str = "auto"
    trials: int = 1000
    seed: int = 0
    engine: str = "batch"
    options: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"problem": _problem_wire_form(self.problem),
                "solver": self.solver, "trials": self.trials,
                "seed": self.seed, "engine": self.engine,
                "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Any) -> "SimulateRequest":
        data = _require_mapping(data, "simulate request")
        _check_keys(data, ("problem", "solver", "trials", "seed", "engine",
                           "options"), ("problem",), "simulate request")
        return cls(problem=dict(_require_mapping(data["problem"],
                                                 "simulate request.problem")),
                   solver=_str_field(data, "solver", "auto", "simulate request"),
                   trials=_int_field(data, "trials", 1000, "simulate request",
                                     minimum=1),
                   seed=_int_field(data, "seed", 0, "simulate request"),
                   engine=_engine_field(data, "simulate request"),
                   options=_dict_field(data, "options", "simulate request"))


@dataclass(frozen=True)
class CampaignRequest:
    """Run one registered campaign scenario through the result cache.

    ``params`` override the scenario defaults exactly like
    ``python -m repro run --param``; ``cache_dir`` defaults to the campaign
    cache (``$REPRO_CACHE_DIR`` or ``.repro-cache``).
    """

    scenario: str
    params: dict[str, Any] = field(default_factory=dict)
    smoke: bool = False
    use_cache: bool = True
    refresh: bool = False
    cache_dir: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"scenario": self.scenario, "params": dict(self.params),
                "smoke": self.smoke, "use_cache": self.use_cache,
                "refresh": self.refresh, "cache_dir": self.cache_dir}

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignRequest":
        data = _require_mapping(data, "campaign request")
        _check_keys(data, ("scenario", "params", "smoke", "use_cache",
                           "refresh", "cache_dir"), ("scenario",),
                    "campaign request")
        cache_dir = data.get("cache_dir")
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise ApiError(INVALID_REQUEST,
                           "campaign request.cache_dir must be a string or null")
        return cls(scenario=_str_field(data, "scenario", "", "campaign request"),
                   params=_dict_field(data, "params", "campaign request"),
                   smoke=_bool_field(data, "smoke", False, "campaign request"),
                   use_cache=_bool_field(data, "use_cache", True,
                                         "campaign request"),
                   refresh=_bool_field(data, "refresh", False,
                                       "campaign request"),
                   cache_dir=cache_dir)


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveResponse:
    """Outcome of one solve: energy, schedule summary and dispatch record.

    ``speeds`` maps each task id (stringified, as in the problem JSON
    schema) to its per-execution speed tuple -- two entries for a
    re-executed TRI-CRIT task.  ``cached`` flags responses served from the
    engine's result cache; ``elapsed_ms`` is the compute time of the solve
    that produced the payload (0.0 on cache hits).
    """

    energy: float
    status: str
    solver: str
    feasible: bool
    makespan: float | None
    speeds: dict[str, list[float]]
    num_reexecuted: int
    dispatch: dict[str, Any]
    cached: bool = False
    elapsed_ms: float = 0.0
    api_version: str = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        # ``speeds`` / ``dispatch`` are returned by reference, not copied:
        # the engine builds them as plain dict/list JSON forms already, and
        # this method sits on the serving hot path (10k-instance batch
        # responses run it per row).  Treat the returned payload as
        # read-only.
        return {"api_version": self.api_version, "energy": self.energy,
                "status": self.status, "solver": self.solver,
                "feasible": self.feasible, "makespan": self.makespan,
                "speeds": self.speeds,
                "num_reexecuted": self.num_reexecuted,
                "dispatch": self.dispatch, "cached": self.cached,
                "elapsed_ms": self.elapsed_ms}

    @classmethod
    def from_dict(cls, data: Any) -> "SolveResponse":
        data = _require_mapping(data, "solve response")
        makespan = data.get("makespan")
        return cls(energy=float(data["energy"]), status=str(data["status"]),
                   solver=str(data["solver"]), feasible=bool(data["feasible"]),
                   makespan=None if makespan is None else float(makespan),
                   speeds={str(t): [float(x) for x in s]
                           for t, s in data.get("speeds", {}).items()},
                   num_reexecuted=int(data.get("num_reexecuted", 0)),
                   dispatch=dict(data.get("dispatch", {})),
                   cached=bool(data.get("cached", False)),
                   elapsed_ms=float(data.get("elapsed_ms", 0.0)),
                   api_version=str(data.get("api_version", API_VERSION)))


@dataclass(frozen=True)
class SolveBatchResponse:
    """Per-instance :class:`SolveResponse` list, in input order."""

    results: list[SolveResponse]
    api_version: str = API_VERSION

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def to_dict(self) -> dict[str, Any]:
        return {"api_version": self.api_version,
                "count": len(self.results),
                "cached_count": self.cached_count,
                "results": [r.to_dict() for r in self.results]}

    @classmethod
    def from_dict(cls, data: Any) -> "SolveBatchResponse":
        data = _require_mapping(data, "solve-batch response")
        return cls(results=[SolveResponse.from_dict(r)
                            for r in data.get("results", [])],
                   api_version=str(data.get("api_version", API_VERSION)))


@dataclass(frozen=True)
class SimulateResponse:
    """Monte-Carlo statistics of the solved schedule, plus the solve itself."""

    solve: SolveResponse
    trials: int
    success_rate: float
    success_stderr: float
    analytic_reliability: float
    mean_energy: float
    mean_makespan: float
    max_makespan: float
    mean_attempts: float
    engine: str
    api_version: str = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api_version": self.api_version, "solve": self.solve.to_dict(),
                "trials": self.trials, "success_rate": self.success_rate,
                "success_stderr": self.success_stderr,
                "analytic_reliability": self.analytic_reliability,
                "mean_energy": self.mean_energy,
                "mean_makespan": self.mean_makespan,
                "max_makespan": self.max_makespan,
                "mean_attempts": self.mean_attempts, "engine": self.engine}

    @classmethod
    def from_dict(cls, data: Any) -> "SimulateResponse":
        data = _require_mapping(data, "simulate response")
        return cls(solve=SolveResponse.from_dict(data["solve"]),
                   trials=int(data["trials"]),
                   success_rate=float(data["success_rate"]),
                   success_stderr=float(data["success_stderr"]),
                   analytic_reliability=float(data["analytic_reliability"]),
                   mean_energy=float(data["mean_energy"]),
                   mean_makespan=float(data["mean_makespan"]),
                   max_makespan=float(data["max_makespan"]),
                   mean_attempts=float(data["mean_attempts"]),
                   engine=str(data.get("engine", "batch")),
                   api_version=str(data.get("api_version", API_VERSION)))


@dataclass(frozen=True)
class CampaignResponse:
    """One scenario execution: the cached record plus provenance flags."""

    scenario: str
    key: str
    cached: bool
    elapsed_seconds: float
    result: Any
    params: dict[str, Any] = field(default_factory=dict)
    api_version: str = API_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"api_version": self.api_version, "scenario": self.scenario,
                "key": self.key, "cached": self.cached,
                "elapsed_seconds": self.elapsed_seconds,
                "result": self.result, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignResponse":
        data = _require_mapping(data, "campaign response")
        return cls(scenario=str(data["scenario"]), key=str(data.get("key", "")),
                   cached=bool(data.get("cached", False)),
                   elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
                   result=data.get("result"),
                   params=dict(data.get("params", {})),
                   api_version=str(data.get("api_version", API_VERSION)))

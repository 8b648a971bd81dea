"""Stable machine-readable error codes for the v1 API.

Every failure that crosses the :mod:`repro.api` boundary -- a malformed
request, an unknown solver name, an instance a solver does not admit, an
over-size payload -- is reported as an :class:`ErrorResponse` carrying one of
the :data:`ERROR_CODES` below.  The codes are part of the wire contract:
clients branch on ``code`` (never on the human-readable ``message``), and the
HTTP transport maps each code to a fixed status via :data:`HTTP_STATUS`.

Inside the process the same information travels as an :class:`ApiError`
exception; :func:`error_from_exception` translates the library's own
exception types (:class:`~repro.solvers.descriptors.InadmissibleSolverError`,
:class:`~repro.solvers.descriptors.UnknownSolverOptionError`,
:class:`~repro.solvers.dispatch.NoAdmissibleSolverError`,
:class:`~repro.core.problems.InfeasibleProblemError`) into it at the facade,
so no consumer of :mod:`repro.api` ever needs to import solver internals to
handle a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ApiError",
    "ErrorResponse",
    "error_from_exception",
    "ERROR_CODES",
    "HTTP_STATUS",
    "INVALID_JSON",
    "INVALID_REQUEST",
    "INVALID_PROBLEM",
    "UNKNOWN_SOLVER",
    "UNKNOWN_SCENARIO",
    "NOT_FOUND",
    "METHOD_NOT_ALLOWED",
    "INADMISSIBLE_SOLVER",
    "NO_ADMISSIBLE_SOLVER",
    "INFEASIBLE_PROBLEM",
    "SIZE_LIMIT",
    "INTERNAL_ERROR",
]

# ----------------------------------------------------------------------
# stable codes (wire contract -- never rename, only add)
# ----------------------------------------------------------------------
INVALID_JSON = "invalid_json"              # request body is not a JSON object
INVALID_REQUEST = "invalid_request"        # JSON ok, fields missing/mistyped
INVALID_PROBLEM = "invalid_problem"        # problem payload fails to parse
UNKNOWN_SOLVER = "unknown_solver"          # solver name not in the registry
UNKNOWN_SCENARIO = "unknown_scenario"      # campaign scenario name unknown
NOT_FOUND = "not_found"                    # no such route
METHOD_NOT_ALLOWED = "method_not_allowed"  # route exists, wrong HTTP method
INADMISSIBLE_SOLVER = "inadmissible_solver"    # named solver rejects instance
NO_ADMISSIBLE_SOLVER = "no_admissible_solver"  # auto-dispatch found nothing
INFEASIBLE_PROBLEM = "infeasible_problem"  # no schedule can meet the deadline
SIZE_LIMIT = "size_limit"                  # instance/batch exceeds the caps
INTERNAL_ERROR = "internal_error"          # unexpected server-side failure

#: HTTP status per code (the transport layer looks them up here).
HTTP_STATUS: dict[str, int] = {
    INVALID_JSON: 400,
    INVALID_REQUEST: 400,
    INVALID_PROBLEM: 400,
    UNKNOWN_SOLVER: 400,
    UNKNOWN_SCENARIO: 404,
    NOT_FOUND: 404,
    METHOD_NOT_ALLOWED: 405,
    INADMISSIBLE_SOLVER: 422,
    NO_ADMISSIBLE_SOLVER: 422,
    INFEASIBLE_PROBLEM: 422,
    SIZE_LIMIT: 413,
    INTERNAL_ERROR: 500,
}

#: Every stable code, for clients and the round-trip tests.
ERROR_CODES = tuple(HTTP_STATUS)


@dataclass(frozen=True)
class ErrorResponse:
    """Structured error payload returned by every failed v1 request."""

    code: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in HTTP_STATUS:
            raise ValueError(f"unknown error code {self.code!r}; "
                             f"known: {', '.join(ERROR_CODES)}")

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def to_dict(self) -> dict[str, Any]:
        """Wire form: ``{"error": {"code", "message", "detail"}}``."""
        return {"error": {"code": self.code, "message": self.message,
                          "detail": dict(self.detail)}}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ErrorResponse":
        body = data.get("error", data)
        return cls(code=str(body["code"]), message=str(body.get("message", "")),
                   detail=dict(body.get("detail", {})))


class ApiError(Exception):
    """An :class:`ErrorResponse` travelling as an exception inside the process."""

    def __init__(self, code: str, message: str, *,
                 detail: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.response = ErrorResponse(code=code, message=message,
                                      detail=dict(detail or {}))

    @property
    def code(self) -> str:
        return self.response.code

    @property
    def http_status(self) -> int:
        return self.response.http_status


def error_from_exception(exc: BaseException) -> ApiError:
    """Translate a library exception into the facade's :class:`ApiError`.

    :class:`ApiError` passes through unchanged; the solver layer's typed
    exceptions map onto their stable codes; anything else becomes
    ``internal_error`` with the exception type recorded in the detail.
    """
    if isinstance(exc, ApiError):
        return exc
    from ..core.problems import InfeasibleProblemError
    from ..solvers import (
        InadmissibleSolverError,
        NoAdmissibleSolverError,
        UnknownSolverOptionError,
    )

    if isinstance(exc, InadmissibleSolverError):
        return ApiError(INADMISSIBLE_SOLVER, str(exc))
    if isinstance(exc, UnknownSolverOptionError):
        return ApiError(INVALID_REQUEST, str(exc))
    if isinstance(exc, NoAdmissibleSolverError):
        return ApiError(NO_ADMISSIBLE_SOLVER, str(exc))
    if isinstance(exc, InfeasibleProblemError):
        return ApiError(INFEASIBLE_PROBLEM, str(exc))
    return ApiError(INTERNAL_ERROR, f"{type(exc).__name__}: {exc}",
                    detail={"exception": type(exc).__name__})

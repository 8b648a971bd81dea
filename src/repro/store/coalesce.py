"""Single-flight request coalescing for identical in-flight computations.

When K identical solve requests arrive concurrently (same content-hash
key), exactly one thread -- the *leader* -- runs the computation; the other
K-1 *waiters* block on an event and share the leader's result (or
exception).  Layered under the engine's cache read: a waiter that wakes up
finds the result already cached, so coalesced requests are answered without
ever touching the solver.

This is per-process by design.  Cross-process duplication is bounded by the
shared :class:`~repro.store.result_store.ResultStore`: the first process to
finish publishes, later processes read.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["Coalescer", "Flight"]


class Flight:
    """One in-flight computation; waiters block on :meth:`wait`."""

    __slots__ = ("key", "_done", "result", "error")

    def __init__(self, key: str) -> None:
        self.key = key
        self._done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def resolve(self, result: Any = None,
                error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self._done.set()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the leader resolves; re-raises the leader's error."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"coalesced computation for {self.key!r} did not finish "
                f"within {timeout}s")
        if self.error is not None:
            raise self.error
        return self.result


class Coalescer:
    """Key-addressed single-flight table.

    Usage::

        flight, leader = coalescer.claim(key)
        if leader:
            try:
                result = compute()
            except BaseException as exc:
                coalescer.resolve(flight, error=exc)   # wakes waiters
                raise
            coalescer.resolve(flight, result=result)
        else:
            result = flight.wait(timeout)              # shares the leader's

    The flight is unregistered when resolved, so a later request for the
    same key starts a fresh computation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}  # guarded-by: _lock
        self._coalesced = 0  # guarded-by: _lock
        self._led = 0  # guarded-by: _lock

    def claim(self, key: str) -> tuple[Flight, bool]:
        """``(flight, is_leader)`` -- leader computes, waiters wait."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self._coalesced += 1
                return flight, False
            flight = Flight(key)
            self._flights[key] = flight
            self._led += 1
            return flight, True

    def resolve(self, flight: Flight, result: Any = None,
                error: BaseException | None = None) -> None:
        """Publish the leader's outcome and retire the flight."""
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        flight.resolve(result, error)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"in_flight": len(self._flights),
                    "coalesced_waits": self._coalesced,
                    "flights_led": self._led}

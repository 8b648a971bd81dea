"""End-to-end smoke of ``python -m repro serve`` (the ``make serve-smoke`` gate).

Phase 1 launches the real CLI server as a subprocess on a free port, waits
for ``/healthz``, then POSTs one ``/v1/solve`` and one ``/v1/solve-batch``
and asserts HTTP 200 with the documented response schema.  Phase 2 boots a
``--workers 2`` fleet sharing one persistent store and asserts that both
workers answer on the advertised port and that a solve computed by one
worker is served ``cached: true`` by the other.  Last, ``verify()`` re-checks
every record the two phases wrote to their shared store and fails on any
quarantined one.  Exits non-zero (with the server log on stderr) on any
failure, so CI catches a broken serve path even when the in-process tests
pass.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time

TIMEOUT_SECONDS = 60.0

SOLVE_FIELDS = ("api_version", "energy", "status", "solver", "feasible",
                "makespan", "speeds", "num_reexecuted", "dispatch", "cached",
                "elapsed_ms")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str, body: dict | None = None):
    status, payload, _ = request_traced(port, method, path, body)
    return status, payload


def request_traced(port: int, method: str, path: str,
                   body: dict | None = None):
    """Like :func:`request`, but also returns the answering worker's pid
    (the ``X-Repro-Worker`` response header)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, response.getheader("X-Repro-Worker")
    finally:
        conn.close()


def wait_for_health(port: int, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            status, payload = request(port, "GET", "/healthz")
            if status == 200 and payload.get("status") == "ok":
                return
        except OSError:
            pass
        time.sleep(0.2)
    raise RuntimeError(f"server did not become healthy within "
                       f"{TIMEOUT_SECONDS}s on port {port}")


def sample_problem() -> dict:
    from repro.core import BiCritProblem, ContinuousSpeeds
    from repro.core.problem_io import problem_to_dict
    from repro.dag import generators
    from repro.platform import Mapping, Platform

    graph = generators.fork(3.0, [2.0, 5.0, 1.0, 4.0])
    platform = Platform(5, ContinuousSpeeds(0.1, 2.0))
    problem = BiCritProblem(Mapping.one_task_per_processor(graph), platform,
                            deadline=6.0)
    return problem_to_dict(problem)


def check_solve_payload(payload: dict, what: str) -> None:
    missing = [f for f in SOLVE_FIELDS if f not in payload]
    assert not missing, f"{what}: missing response field(s) {missing}"
    assert payload["api_version"] == "v1", what
    assert payload["feasible"] is True, what
    assert payload["energy"] > 0, what


def drain_server(server: subprocess.Popen) -> str:
    server.terminate()
    try:
        out, _ = server.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()
        out, _ = server.communicate()
    return out or ""


def single_server_phase(store_dir: str) -> None:
    port = free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--store-dir", store_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=os.environ.copy())
    try:
        wait_for_health(port, time.monotonic() + TIMEOUT_SECONDS)
        problem = sample_problem()

        status, payload = request(port, "POST", "/v1/solve",
                                  {"problem": problem})
        assert status == 200, f"/v1/solve returned {status}: {payload}"
        check_solve_payload(payload, "/v1/solve")

        status, payload = request(port, "POST", "/v1/solve-batch",
                                  {"problems": [problem, problem, problem]})
        assert status == 200, f"/v1/solve-batch returned {status}: {payload}"
        assert payload["count"] == 3, payload
        for item in payload["results"]:
            check_solve_payload(item, "/v1/solve-batch result")
        assert payload["cached_count"] >= 1, \
            "repeat instances in the batch should hit the engine cache"

        status, payload = request(port, "GET", "/v1/store")
        assert status == 200 and payload["enabled"], payload
        assert payload["namespaces"].get("results", {}).get("entries", 0) >= 1, \
            f"solves were not written through to the store: {payload}"

        status, payload = request(port, "GET", "/metrics")
        assert status == 200 and payload["requests_total"] >= 2, payload

        print(f"serve-smoke OK on port {port}: /v1/solve and /v1/solve-batch "
              f"answered 200 with the v1 schema "
              f"(cache hit rate {payload['cache']['hit_rate']:.2f})")
    finally:
        out = drain_server(server)
        if out:
            sys.stderr.write("--- server log ---\n" + out)


def fleet_phase(store_dir: str) -> None:
    """Two workers, one port, one store: both must answer, and a result
    computed by either worker must be a store hit for the other."""
    port = free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2", "--store-dir", store_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=os.environ.copy())
    try:
        wait_for_health(port, time.monotonic() + TIMEOUT_SECONDS)
        problem = sample_problem()

        # Hammer the shared port until both workers have answered the same
        # solve.  Across all of those answers, at most one may have actually
        # dispatched a solver -- everyone else must hit the shared store
        # (phase 1 already warmed this instance, so usually zero).
        answered_by: dict[str, list[bool]] = {}
        uncached = 0
        deadline = time.monotonic() + TIMEOUT_SECONDS
        while len(answered_by) < 2 and time.monotonic() < deadline:
            status, payload, worker = request_traced(
                port, "POST", "/v1/solve", {"problem": problem})
            assert status == 200, f"fleet /v1/solve returned {status}"
            check_solve_payload(payload, "fleet /v1/solve")
            answered_by.setdefault(worker, []).append(payload["cached"])
            uncached += not payload["cached"]
        assert len(answered_by) == 2, \
            f"only worker(s) {sorted(answered_by)} answered on port {port}"
        assert uncached <= 1, \
            f"{uncached} uncached solves across the fleet -- workers are " \
            f"not sharing the persistent store"

        pid_a, pid_b = sorted(answered_by)
        print(f"serve-smoke OK on port {port}: workers {pid_a} and {pid_b} "
              f"both answered; {uncached} solver dispatch(es) across "
              f"{sum(len(v) for v in answered_by.values())} fleet solves "
              f"(shared store)")
    finally:
        out = drain_server(server)
        if server.returncode != 0:
            raise AssertionError(
                f"fleet exited {server.returncode} on SIGTERM (graceful "
                f"drain failed):\n{out}")
        if re.search(r"shutdown complete", out) is None:
            raise AssertionError(f"fleet log lacks a graceful shutdown "
                                 f"message:\n{out}")
        sys.stderr.write("--- fleet log ---\n" + out)


def verify_phase(store_dir: str) -> None:
    """Every record the single server and the fleet wrote to the shared
    store passes a cold checksum pass; a quarantined record fails."""
    from repro.store import ResultStore

    report = ResultStore(store_dir).verify()
    assert report["checked"] >= 1, f"no record to verify: {report}"
    assert report["quarantined"] == 0 and report["ok"] == report["checked"], \
        f"store records failed their checksum: {report}"
    print(f"serve-smoke OK: verify() passed all {report['checked']} "
          f"record(s) of the shared store")


def main() -> int:
    try:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-store-") as tmp:
            single_server_phase(tmp)
            fleet_phase(tmp)
            verify_phase(tmp)
        return 0
    except Exception as exc:  # noqa: BLE001 - report and fail the gate
        print(f"serve-smoke FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

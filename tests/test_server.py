"""In-process smoke tests of the HTTP transport (``python -m repro serve``).

A real :class:`~repro.api.server.ApiServer` is bound to an ephemeral port
and driven over sockets with :mod:`http.client`, so the full stack --
request parsing, routing, engine, JSON encoding, status codes -- is
exercised exactly as an external client sees it.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import Engine
from repro.api.server import make_server
from repro.core.problem_io import problem_to_dict


@pytest.fixture(scope="module")
def chain_payload():
    from repro.core import BiCritProblem, ContinuousSpeeds
    from repro.dag import generators
    from repro.platform import Mapping, Platform

    graph = generators.chain([2.0, 1.0, 3.0])
    platform = Platform(1, ContinuousSpeeds(0.1, 1.0))
    mapping = Mapping.single_processor(graph)
    problem = BiCritProblem(mapping=mapping, platform=platform,
                            deadline=1.5 * graph.total_weight())
    return problem_to_dict(problem)


@pytest.fixture(scope="module")
def server():
    # Tight limits so the size_limit paths are reachable with tiny payloads;
    # the real defaults are exercised by tests/test_api.py.
    srv = make_server(port=0, engine=Engine(max_tasks=16, max_batch=4))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _request(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload
    finally:
        conn.close()


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["api_version"] == "v1"
        assert payload["uptime_seconds"] >= 0

    def test_solvers_table(self, server):
        status, payload = _request(server, "GET", "/v1/solvers")
        assert status == 200
        names = [row["solver"] for row in payload["solvers"]]
        assert "bicrit-closed-form" in names
        assert all("exactness" in row for row in payload["solvers"])

    def test_solve_and_cached_repeat(self, server, chain_payload):
        status, first = _request(server, "POST", "/v1/solve",
                                 {"problem": chain_payload})
        assert status == 200
        for field in ("api_version", "energy", "status", "solver", "feasible",
                      "makespan", "speeds", "num_reexecuted", "dispatch",
                      "cached", "elapsed_ms"):
            assert field in first, f"missing response field {field}"
        assert first["api_version"] == "v1"
        assert first["feasible"] is True
        assert not first["cached"]
        status, second = _request(server, "POST", "/v1/solve",
                                  {"problem": chain_payload})
        assert status == 200
        assert second["cached"] is True
        assert second["energy"] == first["energy"]

    def test_solve_batch(self, server, chain_payload):
        status, payload = _request(server, "POST", "/v1/solve-batch",
                                   {"problems": [chain_payload, chain_payload]})
        assert status == 200
        assert payload["count"] == 2
        assert len(payload["results"]) == 2
        energies = {r["energy"] for r in payload["results"]}
        assert len(energies) == 1      # identical instances, identical answers

    def test_simulate(self, server, chain_payload):
        status, payload = _request(server, "POST", "/v1/simulate",
                                   {"problem": chain_payload, "trials": 100,
                                    "seed": 5})
        assert status == 200
        assert payload["trials"] == 100
        assert 0.0 <= payload["success_rate"] <= 1.0
        assert payload["solve"]["feasible"] is True

    def test_campaign(self, server, tmp_path):
        status, payload = _request(
            server, "POST", "/v1/campaign",
            {"scenario": "e1-fork-closed-form", "smoke": True,
             "cache_dir": str(tmp_path / "cache")})
        assert status == 200
        assert payload["scenario"] == "e1-fork-closed-form"
        assert payload["result"]

    def test_metrics_after_traffic(self, server, chain_payload):
        _request(server, "POST", "/v1/solve", {"problem": chain_payload})
        status, payload = _request(server, "GET", "/metrics")
        assert status == 200
        assert payload["requests"]["POST /v1/solve"] >= 1
        assert payload["cache"]["hits"] >= 1
        lat = payload["latency_ms"]["POST /v1/solve"]
        assert lat["count"] >= 1 and lat["p99_ms"] >= lat["p50_ms"] >= 0


class TestErrorPaths:
    def test_malformed_json(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/v1/solve", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_empty_body(self, server):
        status, payload = _request(server, "POST", "/v1/solve")
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_unknown_route(self, server):
        status, payload = _request(server, "GET", "/v2/solve")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert any("/v1/solve" in r for r in payload["error"]["detail"]["routes"])

    def test_wrong_method(self, server):
        status, payload = _request(server, "GET", "/v1/solve")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_unknown_solver(self, server, chain_payload):
        status, payload = _request(server, "POST", "/v1/solve",
                                   {"problem": chain_payload, "solver": "nope"})
        assert status == 400
        assert payload["error"]["code"] == "unknown_solver"

    def test_invalid_problem(self, server):
        status, payload = _request(server, "POST", "/v1/solve",
                                   {"problem": {"kind": "bicrit"}})
        assert status == 400
        assert payload["error"]["code"] == "invalid_problem"

    def test_invalid_request_shape(self, server, chain_payload):
        status, payload = _request(server, "POST", "/v1/solve",
                                   {"problem": chain_payload, "bogus": 1})
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_batch_size_limit(self, server, chain_payload):
        status, payload = _request(server, "POST", "/v1/solve-batch",
                                   {"problems": [chain_payload] * 5})
        assert status == 413
        assert payload["error"]["code"] == "size_limit"

    def test_oversize_instance(self, server):
        from repro.core import BiCritProblem, ContinuousSpeeds
        from repro.dag import generators
        from repro.platform import Mapping, Platform

        graph = generators.chain([1.0] * 17)    # engine capped at 16 tasks
        problem = BiCritProblem(
            mapping=Mapping.single_processor(graph),
            platform=Platform(1, ContinuousSpeeds(0.1, 1.0)),
            deadline=2.0 * graph.total_weight())
        status, payload = _request(server, "POST", "/v1/solve",
                                   {"problem": problem_to_dict(problem)})
        assert status == 413
        assert payload["error"]["code"] == "size_limit"
        assert payload["error"]["detail"]["max_tasks"] == 16


class TestConcurrency:
    def test_parallel_requests_share_one_engine(self, server, chain_payload):
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def post():
            out = _request(server, "POST", "/v1/solve",
                           {"problem": chain_payload})
            with lock:
                results.append(out)

        threads = [threading.Thread(target=post) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 8
        energies = {payload["energy"] for status, payload in results}
        assert all(status == 200 for status, _ in results)
        assert len(energies) == 1


class TestHardening:
    """Request-size and stalled-client protections of the transport."""

    @pytest.fixture
    def hardened(self):
        srv = make_server(port=0, engine=Engine(),
                          max_body_bytes=1024, handler_timeout=0.5)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

    def test_oversized_body_is_rejected_with_413(self, hardened):
        big = {"problem": {"pad": "x" * 4096}}
        status, payload = _request(hardened, "POST", "/v1/solve", big)
        assert status == 413
        assert payload["error"]["code"] == "size_limit"
        assert payload["error"]["detail"]["max_body_bytes"] == 1024
        assert payload["error"]["detail"]["content_length"] > 1024

    def test_lying_content_length_is_rejected_before_reading(self, hardened):
        # Only headers go out: a Content-Length far beyond the limit must be
        # bounced without the server waiting for (or buffering) the body.
        import socket

        host, port = hardened.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /v1/solve HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 999999999\r\n\r\n")
            sock.settimeout(5)
            reply = b""
            # Headers and body go out as separate writes; read until the
            # body arrived (the server closes the connection afterwards).
            while b"size_limit" not in reply:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert b"413" in reply.split(b"\r\n", 1)[0]
        assert b"size_limit" in reply

    def test_under_limit_requests_still_served(self, hardened):
        status, payload = _request(hardened, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_stalled_client_is_disconnected_by_handler_timeout(self, hardened):
        import socket
        import time

        host, port = hardened.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            # Half a request line, then silence: the 0.5 s socket timeout
            # must free the handler thread and close the connection.
            sock.sendall(b"POST /v1/solve HTT")
            time.sleep(1.2)
            sock.settimeout(5)
            assert sock.recv(4096) == b""   # server hung up

    def test_timeout_zero_disables_the_knobs(self):
        # CLI maps 0 to None; None must mean "no cap / no timeout".
        srv = make_server(port=0, max_body_bytes=None, handler_timeout=None)
        try:
            assert srv.max_body_bytes is None
            assert srv.handler_timeout is None
        finally:
            srv.server_close()


class TestDrain:
    """Graceful shutdown: in-flight handlers finish inside the grace window."""

    @pytest.fixture
    def running(self):
        srv = make_server(port=0, engine=Engine(max_tasks=16, max_batch=4))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            if not srv.draining:
                srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

    @staticmethod
    def _slow_health(srv, delay):
        real = srv.service.engine.health

        def slow():
            time.sleep(delay)
            return real()

        srv.service.engine.health = slow

    def test_worker_pid_header_is_stamped(self, server):
        import os

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Repro-Worker") == str(os.getpid())
        finally:
            conn.close()

    def test_drain_waits_for_inflight_request(self, running):
        import socket
        import time as _time

        self._slow_health(running, 0.6)
        host, port = running.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            deadline = _time.monotonic() + 5
            while running.inflight == 0:       # handler picked the request up
                assert _time.monotonic() < deadline, "request never started"
                _time.sleep(0.01)
            t0 = _time.monotonic()
            assert running.drain(grace=10.0) is True
            # drain() blocked until the slow handler finished, and the
            # client still got a full, well-formed response.
            assert _time.monotonic() - t0 > 0.2
            assert running.inflight == 0
            sock.settimeout(10)
            reply = b""
            while b'"status": "ok"' not in reply and b'"status":"ok"' \
                    not in reply:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
            head = reply.split(b"\r\n\r\n", 1)[0].lower()
            assert b"200" in reply.split(b"\r\n", 1)[0]
            # Draining responses tell the client not to reuse the socket.
            assert b"connection: close" in head
        finally:
            sock.close()

    def test_drain_gives_up_after_grace(self, running):
        import socket
        import time as _time

        self._slow_health(running, 2.0)
        host, port = running.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            deadline = _time.monotonic() + 5
            while running.inflight == 0:
                assert _time.monotonic() < deadline, "request never started"
                _time.sleep(0.01)
            assert running.drain(grace=0.1) is False
            # The straggler still completes (daemon handler thread).
            deadline = _time.monotonic() + 10
            while running.inflight > 0 and _time.monotonic() < deadline:
                _time.sleep(0.05)
            assert running.inflight == 0
        finally:
            sock.close()

    def test_drain_is_immediate_when_idle(self, running):
        t0 = time.perf_counter()
        assert running.drain(grace=5.0) is True
        assert time.perf_counter() - t0 < 2.0


class TestFleet:
    """SO_REUSEPORT port sharing and the pass-through proxy fallback."""

    def test_reuse_port_servers_share_one_port(self):
        import socket

        from repro.api.server import reuse_port_supported
        if not reuse_port_supported():
            pytest.skip("SO_REUSEPORT unavailable on this platform")
        first = make_server(port=0, reuse_port=True)
        port = first.server_address[1]
        second = make_server(port=port, reuse_port=True)
        threads = []
        try:
            for srv in (first, second):
                t = threading.Thread(target=srv.serve_forever, daemon=True)
                t.start()
                threads.append((srv, t))
            status, payload = _request(first, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            for srv, t in threads:
                srv.shutdown()
            for srv in (first, second):
                srv.server_close()
            for _, t in threads:
                t.join(timeout=5)

    def test_reuse_port_without_kernel_support_raises(self, monkeypatch):
        import socket

        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(OSError):
            make_server(port=0, reuse_port=True)

    @pytest.fixture
    def two_backends(self):
        servers = [make_server(port=0, engine=Engine(max_tasks=16))
                   for _ in range(2)]
        threads = []
        for srv in servers:
            t = threading.Thread(target=srv.serve_forever, daemon=True)
            t.start()
            threads.append(t)
        try:
            yield servers
        finally:
            for srv in servers:
                srv.shutdown()
                srv.server_close()
            for t in threads:
                t.join(timeout=5)

    @staticmethod
    def _via(address, path="/healthz"):
        host, port = address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_proxy_round_robins_whole_connections(self, two_backends):
        from repro.api.server import _PassThroughProxy

        backends = [srv.server_address[:2] for srv in two_backends]
        proxy = _PassThroughProxy("127.0.0.1", 0, backends)
        proxy.start()
        try:
            for _ in range(4):
                status, payload = self._via(proxy.address)
                assert status == 200 and payload["status"] == "ok"
        finally:
            proxy.stop()
        counts = [srv.service.engine.metrics()["requests_total"]
                  for srv in two_backends]
        assert sum(counts) == 4
        assert all(count == 2 for count in counts)   # strict round-robin

    def test_proxy_skips_dead_backends(self, two_backends):
        import socket

        from repro.api.server import _PassThroughProxy

        # A port that nothing listens on: bind-then-close reserves a number
        # that is very unlikely to be re-bound within the test.
        with socket.create_server(("127.0.0.1", 0)) as placeholder:
            dead = placeholder.getsockname()[:2]
        live = two_backends[0].server_address[:2]
        proxy = _PassThroughProxy("127.0.0.1", 0, [dead, live])
        proxy.start()
        try:
            for _ in range(3):
                status, payload = self._via(proxy.address)
                assert status == 200 and payload["status"] == "ok"
        finally:
            proxy.stop()


class TestFleetProcess:
    """End-to-end: ``python -m repro serve --workers 2`` as a subprocess."""

    def test_two_workers_share_port_and_store_then_drain(self, tmp_path,
                                                         chain_payload):
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.store import ResultStore
        from repro.store.result_store import _REWALK_SHARE

        budget = 20_000
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "2", "--max-tasks", "16",
             "--store-dir", str(tmp_path / "store"), "--drain-grace", "5",
             "--store-max-bytes", str(budget)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        banner = re.compile(r"fleet listening on http://([\w.\-]+):(\d+)")
        try:
            deadline = time.monotonic() + 60
            match = None
            lines = []
            while match is None:
                assert time.monotonic() < deadline, "".join(lines)
                line = proc.stdout.readline()
                assert line, "fleet exited early:\n" + "".join(lines)
                lines.append(line)
                match = banner.search(line)
            host, port = match.group(1), int(match.group(2))

            def healthz():
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    return response.status, payload, \
                        response.getheader("X-Repro-Worker")
                finally:
                    conn.close()

            pids = set()
            deadline = time.monotonic() + 30
            while len(pids) < 2 and time.monotonic() < deadline:
                status, payload, worker = healthz()
                assert status == 200 and payload["status"] == "ok"
                assert worker == str(payload["pid"])
                pids.add(worker)
            # Both workers answer on the one advertised port.
            assert len(pids) == 2, f"only saw workers {pids}"

            # Distinct solves, a connection each, fill the shared budgeted
            # store past its budget from both workers.
            writers = set()
            solves = 80
            for i in range(solves):
                problem = {**chain_payload, "deadline":
                           chain_payload["deadline"] * (1 + 0.01 * i)}
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("POST", "/v1/solve",
                                 body=json.dumps({"problem": problem}),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    assert response.status == 200, response.read()
                    response.read()
                    writers.add(response.getheader("X-Repro-Worker"))
                finally:
                    conn.close()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert len(writers) == 2, f"only {writers} wrote"
            # Each worker's byte estimate misses the other's writes, so the
            # tree may hold the other's share over the budget (plus one
            # record each), never more; and records were evicted.
            store = ResultStore(tmp_path / "store")
            record = max(p.stat().st_size
                         for p in (tmp_path / "store").rglob("*.json"))
            assert store.size_bytes() <= budget * (1 + _REWALK_SHARE) \
                + 2 * record
            assert 0 < store.count() < solves
            assert store.verify()["quarantined"] == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

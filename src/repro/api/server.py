"""``python -m repro serve``: the stdlib HTTP transport of the v1 API.

A :class:`~http.server.ThreadingHTTPServer` wrapping one shared
:class:`~repro.api.service.Service` (and therefore one long-lived
:class:`~repro.api.engine.Engine`): concurrent requests share the problem
pool, the result cache and the metrics.  No third-party web framework is
used -- the wire format is plain JSON over POST/GET, so ``curl`` is the whole
client story (see the README's "Serving" section).

Beyond the single process, this module owns the serving topology:

* **graceful drain** -- SIGTERM/SIGINT stop the accept loop, wait up to
  ``--drain-grace`` seconds for in-flight handlers to finish (responses go
  out with ``Connection: close``), then exit; a mid-request kill no longer
  drops the connection;
* **multi-worker fleets** -- ``--workers N`` pre-forks N single-worker
  child processes sharing one port via ``SO_REUSEPORT`` (the kernel load
  balances accepts); where the option is unavailable the children bind
  ephemeral ports behind a tiny pass-through proxy in the parent.  Workers
  share the persistent result store (``--store-dir``), so a solve computed
  by one worker is a disk hit for every other -- and for the next boot.
  Dead workers are respawned; shutdown forwards the signal and waits for
  every child's own drain.

``make_server(port=0)`` binds an ephemeral port (read it back from
``server.server_address``), which is what the tests and the smoke script
use; :func:`serve` is the blocking entry point behind the CLI.

A single server's boot (:func:`main`) opens the store, imports every
continuous-speed solver's module and builds the engine before the socket
is bound, so ``/healthz`` answers only once no continuous request can pay
an import.  The boot loads neither the campaign stack nor networkx nor
any SciPy module, and no BI-CRIT or continuous TRI-CRIT request loads one
later (the convex program's linear algebra is numpy's, the re-execution
floor's Wright omega is :mod:`repro.core.reliability`'s own).  SciPy
loads only on the first call of a discrete, incremental or VDD solver
(:mod:`repro.discrete`, LP/MILP on HiGHS through ``scipy.optimize``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..core.gcscope import paused_gc
from ..solvers import iter_solvers
from ..store import ResultStore, StoreError, parse_bytes, resolve_store_root
from .engine import Engine
from .errors import SIZE_LIMIT, ErrorResponse
from .service import Service

__all__ = ["ApiServer", "make_server", "serve", "main", "build_parser",
           "DEFAULT_HOST", "DEFAULT_PORT",
           "DEFAULT_MAX_BODY_BYTES", "DEFAULT_HANDLER_TIMEOUT",
           "DEFAULT_DRAIN_GRACE"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Request bodies larger than this are rejected with ``size_limit`` (413)
#: without ever being read into memory.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Per-connection socket timeout: a stalled client (half-sent request,
#: unread response) releases its handler thread after this many seconds
#: instead of pinning it forever.
DEFAULT_HANDLER_TIMEOUT = 60.0
#: Seconds a shutdown waits for in-flight requests before giving up.
DEFAULT_DRAIN_GRACE = 10.0

#: Worker banner (also parsed by ``repro.campaign.distributed``): keep the
#: ``listening on http://host:port`` shape stable.
_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: Worker-readiness deadline when booting a fleet.
_WORKER_STARTUP_TIMEOUT = 30.0
#: Fleet-wide respawn budget: a worker that keeps crashing must take the
#: fleet down loudly instead of flapping forever.
_MAX_RESPAWNS = 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-api/1"
    protocol_version = "HTTP/1.1"
    # Response headers and body go out as separate writes; without
    # TCP_NODELAY, Nagle + delayed ACK serialises them into ~40 ms stalls
    # per keep-alive request on loopback.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # socketserver applies ``self.timeout`` to the connection in
        # ``setup()``; ``handle_one_request`` already treats a read timeout
        # as close-connection, so a stalled client cannot pin this thread.
        self.timeout = self.server.handler_timeout
        super().setup()

    # One code path for every method: the service does the routing.
    def _dispatch(self) -> None:
        self.server.begin_request()
        try:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = 0
            limit = self.server.max_body_bytes
            if limit is not None and length > limit:
                # Reject before reading: an oversized (or lying)
                # Content-Length must not make the server buffer the
                # payload first.
                error = ErrorResponse(
                    SIZE_LIMIT,
                    f"request body is {length} bytes, server limit is {limit}",
                    detail={"content_length": length,
                            "max_body_bytes": limit})
                self._respond(error.http_status, error.to_dict())
                self.close_connection = True
                return
            # Automatic GC rescans a large request's still-live allocations
            # (parsed JSON, columnar rows, results) dozens of times while it
            # is being handled; pause it for the request scope and reclaim
            # with one young-generation sweep after the response is flushed.
            with paused_gc():
                body = self.rfile.read(length) if length > 0 else b""
                status, payload = self.server.service.handle(self.command,
                                                             self.path, body)
                self._respond(status, payload)
        finally:
            self.server.end_request()

    def _respond(self, status: int, payload: dict) -> None:
        # Compact separators: on a 10k-instance solve-batch response the
        # default ", "/": " padding is ~15% of several megabytes.
        # repro: allow[REP002] -- HTTP response body, never hashed into a key
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        # Which process of a --workers fleet answered; headers are additive
        # and outside the frozen v1 JSON schema.
        self.send_header("X-Repro-Worker", str(os.getpid()))
        if self.server.draining:
            # The response still goes out, but keep-alive would leave the
            # client holding a socket into a dying server.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    do_GET = _dispatch
    do_POST = _dispatch

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class ApiServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`Service`.

    Tracks in-flight requests so :meth:`drain` can shut down without
    dropping work; ``reuse_port`` opts the listening socket into
    ``SO_REUSEPORT`` so several worker processes can share one port.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: Service, *,
                 verbose: bool = False,
                 max_body_bytes: int | None = DEFAULT_MAX_BODY_BYTES,
                 handler_timeout: float | None = DEFAULT_HANDLER_TIMEOUT,
                 reuse_port: bool = False) -> None:
        # bind_and_activate=False: socket options (SO_REUSEPORT) must be
        # set between socket creation and bind.
        super().__init__(address, _Handler, bind_and_activate=False)
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        self.handler_timeout = handler_timeout
        self.reuse_port = reuse_port
        self.draining = False
        self._inflight = 0  # guarded-by: _inflight_cond
        self._inflight_cond = threading.Condition()
        try:
            if reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise OSError("SO_REUSEPORT is not supported here")
                self.socket.setsockopt(socket.SOL_SOCKET,
                                       socket.SO_REUSEPORT, 1)
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.server_close()
            raise

    # -- in-flight accounting ------------------------------------------
    def begin_request(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def end_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    def drain(self, grace: float | None = DEFAULT_DRAIN_GRACE) -> bool:
        """Stop accepting and wait (bounded) for in-flight handlers.

        Must be called while ``serve_forever`` runs in another thread
        (``shutdown`` synchronises with the poll loop).  Returns True when
        every in-flight request finished within the grace period.
        """
        self.draining = True
        self.shutdown()
        deadline = (time.monotonic() + grace) if grace is not None else None
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = (deadline - time.monotonic()
                             if deadline is not None else None)
                if remaining is not None and remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
        return True


def make_server(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, *,
                engine: Engine | None = None,
                verbose: bool = False,
                max_body_bytes: int | None = DEFAULT_MAX_BODY_BYTES,
                handler_timeout: float | None = DEFAULT_HANDLER_TIMEOUT,
                reuse_port: bool = False) -> ApiServer:
    """Build (and bind) the API server without starting its loop.

    ``port=0`` binds an ephemeral port; the chosen one is in
    ``server.server_address[1]``.  ``max_body_bytes`` / ``handler_timeout``
    are the request-hardening knobs (None disables either).
    """
    return ApiServer((host, port), Service(engine), verbose=verbose,
                     max_body_bytes=max_body_bytes,
                     handler_timeout=handler_timeout,
                     reuse_port=reuse_port)


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, *,
          engine: Engine | None = None, verbose: bool = False,
          max_body_bytes: int | None = DEFAULT_MAX_BODY_BYTES,
          handler_timeout: float | None = DEFAULT_HANDLER_TIMEOUT,
          reuse_port: bool = False,
          drain_grace: float | None = DEFAULT_DRAIN_GRACE) -> int:
    """Run one server until SIGTERM/SIGINT, then drain and exit.

    The accept loop runs in a helper thread while the calling thread waits
    for a stop signal; on SIGTERM (or Ctrl-C) no new connections are
    accepted, in-flight requests get up to ``drain_grace`` seconds to
    finish (their responses carry ``Connection: close``), and only then
    does the process exit.
    """
    server = make_server(host, port, engine=engine, verbose=verbose,
                         max_body_bytes=max_body_bytes,
                         handler_timeout=handler_timeout,
                         reuse_port=reuse_port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro api v1 listening on http://{bound_host}:{bound_port} "
          f"(POST /v1/solve, /v1/solve-batch, /v1/simulate, /v1/campaign; "
          f"GET /v1/solvers, /v1/store, /healthz, /metrics) [pid {os.getpid()}]",
          flush=True)
    stop = threading.Event()
    installed: list[tuple[signal.Signals, object]] = []
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum: int, frame: Any) -> None:  # noqa: ARG001 - signal signature
            stop.set()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((sig, signal.signal(sig, _on_signal)))
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
    loop = threading.Thread(target=server.serve_forever, daemon=True,
                            name="repro-serve-accept")
    loop.start()
    try:
        # Periodic wakeups keep the main thread responsive to signals on
        # platforms where a blocked wait() defers handler delivery.
        while not stop.wait(0.2):
            pass
    except KeyboardInterrupt:
        pass
    print(f"[pid {os.getpid()}] draining "
          f"({server.inflight} in flight, grace {drain_grace}s)", flush=True)
    clean = server.drain(drain_grace)
    server.server_close()
    loop.join(timeout=5)
    for sig, previous in installed:
        signal.signal(sig, previous)
    print(f"[pid {os.getpid()}] shutdown "
          f"{'complete' if clean else 'after grace expired'}", flush=True)
    return 0


# ----------------------------------------------------------------------
# multi-worker fleets
# ----------------------------------------------------------------------
def reuse_port_supported(host: str = DEFAULT_HOST) -> bool:
    """Whether this platform accepts SO_REUSEPORT on a TCP listener."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            probe.bind((host, 0))
        return True
    except OSError:
        return False


def child_env() -> dict[str, str]:
    """Environment for ``python -m repro`` worker children.

    The current environment with this package's ``src`` root first on
    PYTHONPATH (empty and duplicate entries dropped), so the children import
    this ``repro`` even when the parent was launched from an arbitrary
    directory.  The serve fleet and the distributed campaign workers both
    spawn with it.
    """
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    parts = [src_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                          if p and p != src_root]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class _Worker:
    """One supervised child process of a fleet."""

    def __init__(self, cmd: list[str]) -> None:
        self.cmd = cmd
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     env=child_env())
        self.port: int | None = None
        self.ready = threading.Event()
        self._pump = threading.Thread(target=self._pump_output, daemon=True)
        self._pump.start()

    def _pump_output(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(2))
                self.ready.set()
                # Defuse the banner before re-printing: anything scanning
                # *this* process's stdout for "listening on" (the
                # distributed-campaign spawner does) must find the fleet
                # banner, not a worker's.
                line = line.replace("listening on", "serving")
            print(f"[worker {self.proc.pid}] {line}", flush=True)
        self.ready.set()        # EOF: wake any waiter (startup failure)


class _PassThroughProxy:
    """Fallback front door when SO_REUSEPORT is unavailable: a minimal
    TCP pass-through that round-robins whole connections across worker
    backends.  No HTTP parsing -- bytes are spliced both ways until either
    side closes."""

    def __init__(self, host: str, port: int,
                 backends: Sequence[tuple[str, int]]) -> None:
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._backends = list(backends)  # guarded-by: _lock
        self._next = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True, name="repro-proxy")

    def start(self) -> None:
        self._thread.start()

    def set_backends(self, backends: Sequence[tuple[str, int]]) -> None:
        with self._lock:
            self._backends = list(backends)

    def _pick_order(self) -> list[tuple[str, int]]:
        with self._lock:
            if not self._backends:
                return []
            start = self._next % len(self._backends)
            self._next += 1
            return self._backends[start:] + self._backends[:start]

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return              # listener closed by stop()
            threading.Thread(target=self._bridge, args=(client,),
                             daemon=True).start()

    def _bridge(self, client: socket.socket) -> None:
        upstream = None
        # First healthy backend wins; a dead worker (being respawned) is
        # skipped instead of failing the client connection.
        for backend in self._pick_order():
            try:
                upstream = socket.create_connection(backend, timeout=10)
                break
            except OSError:
                continue
        if upstream is None:
            client.close()
            return
        done = threading.Event()

        def pipe(src: socket.socket, dst: socket.socket) -> None:
            try:
                while True:
                    chunk = src.recv(65536)
                    if not chunk:
                        break
                    dst.sendall(chunk)
            except OSError:
                pass
            finally:
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                done.set()

        threading.Thread(target=pipe, args=(client, upstream),
                         daemon=True).start()
        pipe(upstream, client)
        done.wait(timeout=30)
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass

    def stop(self) -> None:
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass


def _worker_cmd(args: argparse.Namespace, port: int, *,
                reuse_port: bool) -> list[str]:
    """The ``python -m repro serve`` command line for one fleet child."""
    cmd = [sys.executable, "-m", "repro", "serve",
           "--host", args.host, "--port", str(port), "--workers", "1",
           "--max-body-bytes", str(args.max_body_bytes),
           "--handler-timeout", str(args.handler_timeout),
           "--drain-grace", str(args.drain_grace)]
    if reuse_port:
        cmd.append("--reuse-port")
    for flag, value in (("--max-tasks", args.max_tasks),
                        ("--max-batch", args.max_batch),
                        ("--cache-size", args.cache_size)):
        if value is not None:
            cmd.extend([flag, str(value)])
    if args.no_store:
        cmd.append("--no-store")
    else:
        # Resolve in the parent so every worker shares one absolute root
        # (the whole point of the tier) regardless of env differences.
        cmd.extend(["--store-dir", str(resolve_store_root(args.store_dir))])
        if args.store_max_bytes:
            cmd.extend(["--store-max-bytes", str(args.store_max_bytes)])
    if args.verbose:
        cmd.append("--verbose")
    return cmd


def _serve_fleet(args: argparse.Namespace) -> int:
    """Parent of a ``--workers N`` fleet: spawn, supervise, drain.

    With SO_REUSEPORT every child listens on the same port and the kernel
    balances accepted connections; otherwise children take ephemeral ports
    behind a :class:`_PassThroughProxy` in this process.  Either way the
    parent prints one fleet banner once the workers are up, respawns dead
    children, and on SIGTERM/SIGINT forwards the signal so each child runs
    its own graceful drain.
    """
    use_reuse_port = reuse_port_supported(args.host)
    placeholder: socket.socket | None = None
    port = args.port
    if use_reuse_port and port == 0:
        # Resolve the ephemeral port up front: a bound (non-listening)
        # placeholder with SO_REUSEPORT reserves the number while the
        # children bind it for real, then goes away.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.bind((args.host, 0))
        port = placeholder.getsockname()[1]

    def spawn() -> _Worker:
        child_port = port if use_reuse_port else 0
        return _Worker(_worker_cmd(args, child_port,
                                   reuse_port=use_reuse_port))

    workers = [spawn() for _ in range(args.workers)]
    proxy: _PassThroughProxy | None = None
    try:
        deadline = time.monotonic() + _WORKER_STARTUP_TIMEOUT
        for worker in workers:
            worker.ready.wait(max(0.1, deadline - time.monotonic()))
            if worker.port is None:
                raise RuntimeError(
                    f"worker pid {worker.proc.pid} did not report a port "
                    f"within {_WORKER_STARTUP_TIMEOUT:.0f}s "
                    f"(exit code {worker.proc.poll()})")
        if placeholder is not None:
            placeholder.close()
            placeholder = None
        if not use_reuse_port:
            proxy = _PassThroughProxy(
                args.host, port,
                [(args.host, w.port) for w in workers if w.port])
            proxy.start()
            port = proxy.address[1]
        mode = "SO_REUSEPORT" if use_reuse_port else "parent proxy"
        print(f"repro api v1 fleet listening on http://{args.host}:{port} "
              f"({args.workers} workers via {mode}) [pid {os.getpid()}]",
              flush=True)

        stop = threading.Event()

        def _on_signal(signum: int, frame: Any) -> None:  # noqa: ARG001 - signal signature
            stop.set()
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _on_signal)

        respawns = 0
        try:
            while not stop.wait(0.2):
                for i, worker in enumerate(workers):
                    if worker.proc.poll() is None or stop.is_set():
                        continue
                    respawns += 1
                    if respawns > _MAX_RESPAWNS:
                        print(f"fleet: worker respawn budget "
                              f"({_MAX_RESPAWNS}) exhausted, shutting down",
                              flush=True)
                        stop.set()
                        break
                    print(f"fleet: worker pid {worker.proc.pid} exited "
                          f"with {worker.proc.returncode}; respawning",
                          flush=True)
                    replacement = spawn()
                    replacement.ready.wait(_WORKER_STARTUP_TIMEOUT)
                    workers[i] = replacement
                    if proxy is not None:
                        proxy.set_backends([(args.host, w.port)
                                            for w in workers if w.port])
        except KeyboardInterrupt:
            pass

        print(f"fleet: stopping {len(workers)} workers "
              f"(grace {args.drain_grace}s each)", flush=True)
        for worker in workers:
            if worker.proc.poll() is None:
                worker.proc.send_signal(signal.SIGTERM)
        wait_deadline = time.monotonic() + args.drain_grace + 5.0
        for worker in workers:
            try:
                worker.proc.wait(max(0.1, wait_deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait(timeout=5)
        print("fleet: shutdown complete", flush=True)
        return 0
    finally:
        if placeholder is not None:
            placeholder.close()
        if proxy is not None:
            proxy.stop()
        for worker in workers:
            if worker.proc.poll() is None:
                worker.proc.kill()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve the repro v1 JSON API over HTTP "
                    "(stdlib ThreadingHTTPServer; no extra dependencies).")
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port, 0 for ephemeral (default {DEFAULT_PORT})")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes sharing the port and the "
                             "result store (default 1; >1 pre-forks via "
                             "SO_REUSEPORT, or a parent proxy without it)")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="per-instance task cap (size_limit above it)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="per-request instance cap for /v1/solve-batch")
    parser.add_argument("--cache-size", type=int, default=None,
                        help="result-cache capacity (LRU entries)")
    parser.add_argument("--store-dir", default=None,
                        help="persistent result-store root shared by all "
                             "workers and campaign runs (default "
                             "$REPRO_STORE_DIR, $REPRO_CACHE_DIR or "
                             ".repro-cache)")
    parser.add_argument("--no-store", action="store_true",
                        help="serve fully in-memory: no persistent result "
                             "store (results die with the process)")
    parser.add_argument("--store-max-bytes", type=parse_bytes, default=0,
                        help="byte budget for the store (500000, 100k, 64m, "
                             "2g); writes evict least-recently-used records "
                             "beyond it (0 = unlimited).  Each worker sees "
                             "only its own writes between walks of the "
                             "tree, so N workers can hold up to (N-1) x "
                             "10%% of it over it, plus one request's "
                             "records per worker")
    parser.add_argument("--max-body-bytes", type=int,
                        default=DEFAULT_MAX_BODY_BYTES,
                        help="reject request bodies larger than this with "
                             f"413 size_limit (default {DEFAULT_MAX_BODY_BYTES}; "
                             "0 disables the cap)")
    parser.add_argument("--handler-timeout", type=float,
                        default=DEFAULT_HANDLER_TIMEOUT,
                        help="per-connection socket timeout in seconds so a "
                             "stalled client frees its thread (default "
                             f"{DEFAULT_HANDLER_TIMEOUT:.0f}; 0 disables)")
    parser.add_argument("--drain-grace", type=float,
                        default=DEFAULT_DRAIN_GRACE,
                        help="seconds to wait for in-flight requests on "
                             "SIGTERM/SIGINT before exiting (default "
                             f"{DEFAULT_DRAIN_GRACE:.0f}; 0 exits "
                             "immediately after stopping the accept loop)")
    parser.add_argument("--reuse-port", action="store_true",
                        help="bind with SO_REUSEPORT (used by fleet workers; "
                             "also lets an external supervisor run several "
                             "servers on one port)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request line")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", flush=True)
        return 2
    if args.workers > 1:
        return _serve_fleet(args)
    overrides = {}
    if args.max_tasks is not None:
        overrides["max_tasks"] = args.max_tasks
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.cache_size is not None:
        overrides["cache_size"] = args.cache_size
    store = None
    if not args.no_store:
        try:
            store = ResultStore(args.store_dir,
                                max_bytes=args.store_max_bytes or None)
        except StoreError as exc:
            print(f"cannot open result store: {exc}", flush=True)
            return 2
    # Load every continuous solver before the bind, so /healthz answers
    # only once no continuous request can pay an import.
    for solver in iter_solvers():
        if "continuous" in solver.speed_models:
            solver.resolve()
    engine = Engine(store=store, **overrides)
    return serve(args.host, args.port, engine=engine, verbose=args.verbose,
                 max_body_bytes=args.max_body_bytes or None,
                 handler_timeout=args.handler_timeout or None,
                 reuse_port=args.reuse_port,
                 drain_grace=args.drain_grace if args.drain_grace > 0 else 0.0)

"""The served path: boot ``python -m repro serve``, drive it closed loop,
and reduce the samples to the end-to-end metrics.

The server runs exactly as a user starts it (one worker, default store
on a fresh directory); the client is plain ``http.client`` over one
keep-alive connection.  It records only latency, status and the response
bytes while the clock runs; every answer is parsed and checked afterwards.

The cores of a shared host change speed by up to 1.7x in spells of seconds
to minutes, with no steal time, so raw wall times of two runs of the same
code differ by more than any useful bound.  The client therefore times a
fixed host-speed probe (:func:`probe_s`) off the clock, on the CPU the
server is pinned to, and reports every time as it would read on a core
where the probe takes :data:`PROBE_REF_S`; the raw figures are printed
beside them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

from workloads import ROOT, SRC, Request

#: Seconds a boot may take before the run is abandoned.
BOOT_TIMEOUT = 60.0
_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: One sample: (request, HTTP status, response bytes, seconds).
Sample = tuple[Request, int, bytes, float]
#: Sends one request and returns (status, response bytes).
Send = Callable[[Request], tuple[int, bytes]]


class Server:
    """One ``python -m repro serve`` process on an ephemeral port; ``flags``
    are extra ``serve`` options (``--no-store`` for a comparison reading)."""

    def __init__(self, store_dir: str, *flags: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store-dir", store_dir, *flags],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            self.port = self._await_banner()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        #: Launch to first 200 on /healthz.
        self.setup_s = time.perf_counter() - t0
        # Keep draining stdout so a chatty server can never block on a
        # full pipe.
        self._pump = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._pump.start()

    def _await_banner(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        seen = []
        for line in self.proc.stdout:
            seen.append(line)
            match = _BANNER.search(line)
            if match:
                return int(match.group(2))
            if time.monotonic() > deadline:
                break
        raise RuntimeError("repro serve printed no listening banner:\n"
                           + "".join(seen[-20:]))

    def _await_health(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, Any]:
        return json.loads(self.get("/metrics")[1])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        pump = getattr(self, "_pump", None)
        if pump is not None:
            pump.join(timeout=30)
        self.proc.stdout.close()


def http_sender(port: int) -> tuple[Send, Callable[[], None]]:
    """A keep-alive sender for one client thread, and its closer."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
    headers = {"Content-Type": "application/json"}

    def send(req: Request) -> tuple[int, bytes]:
        conn.request("POST", req.path, body=req.body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()

    return send, conn.close


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------
#: The document one probe works on, of the size and shape of a small solve.
_PROBE_DOC = {"tasks": [{"id": f"t{i}", "weight": 1.0 + 0.37 * i}
                        for i in range(40)],
              "deadline": 12.5,
              "platform": {"fmin": 0.1, "fmax": 2.0, "alpha": 3.0}}

#: Seconds :func:`probe_s` takes on a quiet core of the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11).  Reported times are scaled to it.
PROBE_REF_S = 0.40e-3

#: Seconds between probes during a run (a probe precedes every request that
#: is longer than this).
PROBE_INTERVAL_S = 0.05


def probe_s() -> float:
    """Seconds of the host-speed probe: the faster of two runs of a fixed
    slice of the work the server does in Python (JSON encode and decode,
    hashing, a dict walk, a sort)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(6):
            text = json.dumps(_PROBE_DOC, sort_keys=True)
            doc = json.loads(text)
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            total = 0.0
            for task in doc["tasks"]:
                total += task["weight"] ** 2 / doc["deadline"]
            sorted((t["id"], t["weight"]) for t in doc["tasks"])
        best = min(best, time.perf_counter() - t0)
    return best


def slowness() -> float:
    """How much slower than the reference the host runs right now."""
    return probe_s() / PROBE_REF_S


# ----------------------------------------------------------------------
# closed-loop load
# ----------------------------------------------------------------------
def drive_sequential(send: Send, requests: Iterable[Request]) -> list[Sample]:
    """One client sending ``requests`` in order; each is generated off the
    clock, between the previous reply and the next send."""
    samples: list[Sample] = []
    for req in requests:
        t0 = time.perf_counter()
        status, data = send(req)
        samples.append((req, status, data, time.perf_counter() - t0))
    return samples


def drive_probed(send: Send, requests: Iterable[Request]
                 ) -> tuple[list[Sample], list[float]]:
    """:func:`drive_sequential` with a host-speed probe, off the clock,
    before a request whenever :data:`PROBE_INTERVAL_S` has passed since the
    last one, and once after the last request.  Returns the samples and,
    for each, the mean :func:`slowness` of the probes on either side."""
    samples: list[Sample] = []
    probes: list[float] = []
    before: list[int] = []          # per sample: index of the probe before it
    last = -math.inf
    for req in requests:
        if time.perf_counter() - last >= PROBE_INTERVAL_S:
            probes.append(slowness())
            last = time.perf_counter()
        t0 = time.perf_counter()
        status, data = send(req)
        samples.append((req, status, data, time.perf_counter() - t0))
        before.append(len(probes) - 1)
    probes.append(slowness())
    return samples, [(probes[k] + probes[k + 1]) / 2 for k in before]


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def check_samples(workload: Any, samples: list[Sample], *,
                  on_response: Callable[[Any], None] | None = None
                  ) -> tuple[int, list[str]]:
    """Attempted ops and the reasons of the failed ones: a non-200 fails
    all its instances, so does an answer the workload's check rejects (row
    by row in a batch).  ``on_response`` sees every parsed 200 response."""
    attempted = 0
    failures: list[str] = []
    for req, status, data, _ in samples:
        attempted += req.instances
        if status != 200:
            failures += [f"HTTP {status}: {data[:200]!r}"] * req.instances
            continue
        try:
            response = json.loads(data)
        except ValueError:
            failures += ["response is not JSON"] * req.instances
            continue
        failures += workload.check(req, response)
        if on_response is not None:
            on_response(response)
    return attempted, failures


#: The tail is taken in up to this many consecutive rounds of a run, ...
TAIL_ROUNDS = 24
#: ... each of at least this many samples (so each round's tail is p90.9 or
#: higher); a run too short for two rounds is one round.
TAIL_ROUND_MIN = 110


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples cannot support a tail percentile")
    return ordered[n - 11], 100.0 * (n - 10) / n


def load_metrics(samples: list[Sample], slow: list[float] | None = None
                 ) -> dict[str, Any]:
    """Throughput (instances per second of summed request time), median
    latency and the tail of one run, each request's time divided by the
    host's ``slow``-ness when it was sent (as measured without ``slow``).
    The tail is taken in consecutive rounds (:data:`TAIL_ROUNDS`,
    :data:`TAIL_ROUND_MIN`) and the median round is reported."""
    latencies = [s[3] / f for s, f in zip(samples, slow or [1.0] * len(samples))]
    rounds = max(1, min(TAIL_ROUNDS, len(latencies) // TAIL_ROUND_MIN))
    size = len(latencies) // rounds
    tails = [tail(latencies[i * size:(i + 1) * size]) for i in range(rounds)]
    pct = tails[0][1]               # every round has the same size
    return {"instances_per_s":
                sum(s[0].instances for s in samples) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": statistics.median(v for v, _ in tails) * 1e3,
            "tail_percentile": pct, "tail_rounds": rounds,
            "samples": len(latencies)}

"""The repository's benchmark: the served path, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload batch-chain-store --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` boots the real ``python -m repro serve`` CLI (one worker,
default persistent store on a fresh directory), drives it closed loop from
this process, checks every answer and reports the end-to-end metrics.
``--trace 1`` replays the same generated inputs in process through
``repro.api.Service.handle`` twice -- untraced, then with spans around each
layer's entry points -- and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and their expected interactions are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from spans import KNOWN_SOLVERS
from workloads import ROOT, WORKLOADS, require_repro

#: Seed kept out of every tuning run, for checking a later claim on inputs
#: its change was not written against.
HELD_OUT_SEED = 7919

#: Server boots per served run; ``setup_s`` is their median.
BOOTS = 7

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "server_peak_rss_mb": "MB",
}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("service.self_ms", "ms/op", "lower"),
    ("types.request_parse_ms", "ms/op", "lower"),
    ("types.response_build_ms", "ms/op", "lower"),
    ("columnar.from_wire_ms", "ms/op", "lower"),
    ("columnar.content_keys_ms", "ms/op", "lower"),
    ("columnar.materialise_ms", "ms/op", "lower"),
    ("columnar.materialised_per_instance", "count", "lower"),
    ("columnar.fallback_rows", "count", "lower"),
    ("engine.self_ms", "ms/op", "lower"),
    ("engine.lru_hit_ratio", "ratio", "higher"),
    ("engine.coalesced_hits", "count", "higher"),
    ("store.get_calls_per_op", "count", "lower"),
    ("store.get_ms", "ms/op", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.put_calls_per_op", "count", "lower"),
    ("store.put_ms", "ms/op", "lower"),
    ("store.bytes_written_per_instance", "bytes", "lower"),
    ("solvers.kernel_ms", "ms/op", "lower"),
    ("solvers.kernel_share", "ratio", "higher"),
    ("solvers.schedule_build_ms", "ms/op", "lower"),
    ("solvers.schedules_materialised_per_instance", "count", "lower"),
    *((f"solvers.by_solver.{name}", "count", "higher")
      for name in (*KNOWN_SOLVERS, "other")),
    ("pruned.nodes", "count", "lower"),
    ("pruned.subsets_evaluated", "count", "lower"),
    ("pruned.max_gap", "ratio", "lower"),
    ("server.encode_ms", "ms/op", "lower"),
    ("server.response_bytes_per_instance", "bytes", "lower"),
    ("trace.request_ms", "ms/op", "lower"),
    ("trace.unattributed_ms", "ms/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def environment(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    import scipy

    sha = dirty = None
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=git_env, capture_output=True, text=True,
                             timeout=30, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=git_env, capture_output=True, text=True,
            timeout=30, check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass                    # not a git checkout: sha and dirty stay null
    return {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "run_seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "git_dirty": dirty}


def load(workload: Any, send: Any, seconds: float, *, replay: bool) -> list:
    """Run the workload's closed loop and return its samples (inputs are
    generated off the clock between requests)."""
    from loadgen import drive_sequential

    count = workload.size(seconds, replay)
    return drive_sequential(send, workload.stream(count, replay))


def prefill_and_check(send: Any, workload: Any) -> None:
    """Write the workload's store pool through ``send`` (off the clock)."""
    from loadgen import check_samples

    samples = [(req, *send(req), 0.0) for req in workload.prefill()]
    _, failures = check_samples(workload, samples)
    if failures:
        raise RuntimeError(f"store prefill failed on {len(failures)} rows, "
                           f"first: {failures[0]}")


# ----------------------------------------------------------------------
# --trace 0: the served path
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> int:
    """Pin this process, and so the server it launches, to one CPU: the
    client waits while the server works, and the host-speed probe then
    times the core the server runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def served_run(workload: Any, seconds: float, scratch: Path) -> dict[str, Any]:
    from loadgen import (Server, check_samples, drive_probed, http_sender,
                         load_metrics, slowness)

    def boot() -> Any:
        slow = slowness()
        server = Server(store)
        setup.append(server.setup_s)
        setup_slow.append((slow + slowness()) / 2)
        return server

    store = str(scratch / "store")
    setup: list[float] = []
    setup_slow: list[float] = []
    server = boot()
    close = None
    try:
        if hasattr(workload, "prefill"):
            send, close = http_sender(server.port)
            prefill_and_check(send, workload)
            close()
        # Restarts: the measured server starts with an empty LRU over
        # whatever the store holds.
        for _ in range(BOOTS - 1):
            server.stop()
            server = boot()
        send, close = http_sender(server.port)
        for req in workload.warmup():
            send(req)
        samples, slow = drive_probed(
            send, workload.stream(workload.size(seconds, False), False))
        server_metrics = server.metrics()
        rss_mb = server.peak_rss_mb()
    finally:
        if close is not None:
            close()
        server.stop()
    attempted, failures = check_samples(workload, samples)
    lat = load_metrics(samples, slow)
    raw = load_metrics(samples)
    return {"attempted": attempted, "failures": failures,
            "metrics": {"setup_s": statistics.median(
                            s / f for s, f in zip(setup, setup_slow)),
                        "instances_per_s": lat["instances_per_s"],
                        "latency_p50_ms": lat["latency_p50_ms"],
                        "latency_tail_ms": lat["latency_tail_ms"],
                        "server_peak_rss_mb": rss_mb},
            "labels": {
                "setup_s": f"median of {BOOTS} boots",
                "latency_tail_ms":
                    f"p{lat['tail_percentile']:.4g} of {lat['samples']} samples"
                    + (f" (median of {lat['tail_rounds']} rounds)"
                       if lat["tail_rounds"] > 1 else "")},
            "notes": {"as_measured": {
                          "setup_s": statistics.median(setup),
                          **{k: raw[k] for k in ("instances_per_s",
                                                 "latency_p50_ms",
                                                 "latency_tail_ms")}},
                      "host_slowness_median": statistics.median(slow),
                      "setup_boots_s": setup,
                      "cache": server_metrics["cache"],
                      "store": {k: server_metrics["store"][k]
                                for k in ("hits", "misses")}}}


# ----------------------------------------------------------------------
# --trace 1: in-process replay, untraced and traced requests interleaved
# ----------------------------------------------------------------------
def _service(store_dir: Path) -> Any:
    """An engine configured like ``python -m repro serve`` defaults."""
    from repro.api.engine import Engine
    from repro.api.service import Service
    from repro.store import ResultStore

    return Service(Engine(store=ResultStore(store_dir)))


def _inprocess_sender(service: Any, tracer: Any = None,
                      traced: dict[int, bool] | None = None) -> Any:
    """``Service.handle`` plus the server's compact encode, under the
    server's request-scoped GC pause.  With a ``tracer``, requests alternate
    untraced / traced in ABBA order and ``traced`` records which was which
    (by request object id)."""
    from contextlib import nullcontext

    from repro.core.gcscope import paused_gc
    from spans import ENCODE

    order = itertools.count()

    def send(req: Any) -> tuple[int, bytes]:
        context = nullcontext()
        if tracer is not None:
            on = next(order) % 4 in (1, 2)
            traced[id(req)] = on
            context = tracer.request(on)
        with paused_gc(), context:
            status, payload = service.handle("POST", req.path, req.body)
            with (tracer.span(ENCODE) if tracer else nullcontext()):
                # The response body exactly as the server encodes it.
                data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return status, data
    return send


def _store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*.json"))


def _ms_per_instance(samples: list) -> float:
    return 1e3 * sum(s[3] for s in samples) / sum(s[0].instances for s in samples)


def traced_run(workload: Any, seconds: float, scratch: Path) -> dict[str, Any]:
    from loadgen import check_samples
    from spans import (Tracer, count_solvers, instrument, layer_metrics,
                       self_time_table)

    store_dir = scratch / "store"
    service = _service(store_dir)
    if hasattr(workload, "prefill"):
        prefill_and_check(_inprocess_sender(service), workload)
        service = _service(store_dir)       # restart: empty LRU, full store
    warm = _inprocess_sender(service)
    for req in workload.warmup():
        warm(req)
    before = _store_bytes(store_dir)
    tracer = Tracer()
    traced: dict[int, bool] = {}
    restore = instrument(tracer)
    try:
        samples = load(workload, _inprocess_sender(service, tracer, traced),
                       seconds, replay=True)
    finally:
        restore()
    solvers: Counter[str] = Counter()
    attempted, failures = check_samples(
        workload, samples, on_response=lambda r: count_solvers(solvers, r))
    on = [s for s in samples if traced[id(s[0])]]
    off = [s for s in samples if not traced[id(s[0])]]
    metrics = layer_metrics(tracer, instances=sum(s[0].instances for s in on))
    engine = service.handle("GET", "/metrics")[1]
    cache = engine["cache"]
    lookups = cache["hits"] + cache["misses"]
    lru_hits = cache["hits"] - engine["store"]["hits"] - cache["coalesced_hits"]
    metrics.update({
        "engine.lru_hit_ratio": lru_hits / lookups if lookups else 0.0,
        "engine.coalesced_hits": float(cache["coalesced_hits"]),
        "store.bytes_written_per_instance":
            (_store_bytes(store_dir) - before) / attempted,
        "server.response_bytes_per_instance":
            sum(len(s[2]) for s in samples) / attempted,
        "trace.overhead_pct":
            100.0 * (_ms_per_instance(on) / _ms_per_instance(off) - 1.0),
    })
    for name in (*KNOWN_SOLVERS, "other"):
        metrics[f"solvers.by_solver.{name}"] = float(solvers[name])
    tracer.dump(scratch.parent / f"spans-{workload.name}.jsonl",
                {"workload": workload.name, "seed": workload.seed,
                 "traced_requests": len(on)})
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "notes": {"traced_requests": len(on), "untraced_requests": len(off),
                      "self_time_top": [(n, round(s, 4), c) for n, s, c
                                        in self_time_table(tracer)[:8]]}}


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_repro()
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args)
    env["pinned_cpu"] = pin_to_one_cpu()
    print("env " + json.dumps(env), flush=True)
    scratch = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        run = (traced_run if args.trace else served_run)(
            workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = ({n: u for n, u, _ in PER_LAYER} if args.trace else END_TO_END)
    labels = run.get("labels", {})
    for name, unit in units.items():
        print(f"  {name:45s} {run['metrics'][name]:14.6g} {unit:6s} "
              f"{labels.get(name, '')}")
    for key, value in run["notes"].items():
        print(f"  {key}: {json.dumps(value)}")
    failed = len(run["failures"])
    print(f"  error_rate {failed / run['attempted']:.6g} "
          f"({failed} of {run['attempted']} ops failed)")
    for reason in run["failures"][:5]:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"], "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

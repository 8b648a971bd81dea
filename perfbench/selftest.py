"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that a short run of every workload prints every declared metric
with its unit and no failures, that the traced spans nest and account for
the request time, that a wrong answer is counted as failed, and that the
benchmark refuses to run without the program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loadgen import check_samples  # noqa: E402
from run import END_TO_END, PER_LAYER, _inprocess_sender, _service  # noqa: E402
from spans import REQUEST, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import (BATCH_ROWS, ROOT, WORKLOADS,  # noqa: E402
                       BatchChainStore, Request, TricritSolve,
                       require_repro)

require_repro()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_prints_every_metric_without_failures(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in END_TO_END.items() if not trace else ():
        assert f"  {name}" in proc.stdout and unit in proc.stdout


def test_batch_spans_nest_and_account_for_the_request_time(tmp_path):
    workload = BatchChainStore(11)
    service = _service(tmp_path / "store")
    tracer = Tracer()
    traced: dict[int, bool] = {}
    restore = instrument(tracer)
    try:
        send = _inprocess_sender(service, tracer, traced)
        samples = [(req, *send(req), 0.0)
                   for req in (workload.request(j) for j in range(4))]
    finally:
        restore()
    attempted, failures = check_samples(workload, samples)
    assert attempted == 4 * BATCH_ROWS and not failures
    assert sorted(traced.values()) == [False, False, True, True]

    spans = tracer.spans
    children: dict[int, float] = defaultdict(float)
    for _req, _sid, parent, _name, start, end, _own in spans:
        children[parent] += end - start
    for _req, sid, _parent, name, start, end, _own in spans:
        assert children[sid] <= (end - start) + 1e-9, name
    assert sum(1 for s in spans if s[3] == REQUEST) == 2
    # The reported per-layer times are a complete split of the request.
    metrics = layer_metrics(tracer, instances=attempted // 2)
    split = {k: v for k, v in metrics.items()
             if k.endswith("_ms") and not k.startswith("trace.")}
    request = metrics["trace.request_ms"]
    assert abs(sum(split.values()) - request) <= 0.1 * request
    # The store write and the per-row materialisation lead the split.
    top = sorted(((v, k) for k, v in split.items()), reverse=True)[:3]
    assert {k for _, k in top} == {"store.put_ms", "solvers.schedule_build_ms",
                                   "columnar.materialise_ms"}


def test_corrupted_answers_count_as_failed(tmp_path):
    workload = BatchChainStore(5)
    req = workload.request(0)
    status, data = _inprocess_sender(_service(tmp_path / "s"))(req)
    response = json.loads(data)
    response["results"][7]["energy"] *= 1.001
    canned = json.dumps(response).encode()
    attempted, failures = check_samples(workload, [(req, status, canned, 0.0)])
    assert attempted == BATCH_ROWS and len(failures) == 1
    assert "energy" in failures[0]
    # A feasible, self-consistent but suboptimal answer (every task at fmax)
    # fails too.
    payload = req.ref[3]
    fmax = payload["platform"]["speed_model"]["fmax"]
    alpha = payload["platform"]["energy_model"]["exponent"]
    response["results"][3] = {
        **response["results"][3],
        "speeds": {t["id"]: [fmax] for t in payload["graph"]["tasks"]},
        "energy": sum(t["weight"] * fmax ** (alpha - 1)
                      for t in payload["graph"]["tasks"])}
    canned = json.dumps(response).encode()
    _, failures = check_samples(workload, [(req, status, canned, 0.0)])
    assert len(failures) == 2 and "chain optimum" in failures[0]
    # A non-200 fails every instance the request carried.
    _, failures = check_samples(workload, [(req, 500, b"{}", 0.0)])
    assert len(failures) == BATCH_ROWS

    tricrit = TricritSolve(5)
    entry = tricrit.pool[0]
    good = {"feasible": True, "energy": entry["energy"]}
    bad = dict(good, energy=entry["energy"] * 1.001)
    req = Request("/v1/solve", b"", entry, 1)
    samples = [(req, 200, json.dumps(a).encode(), 0.0) for a in (good, bad)]
    assert len(check_samples(tricrit, samples)[1]) == 1


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "tricrit-solve", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
